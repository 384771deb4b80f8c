package quant_test

import (
	"math"
	"testing"

	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/tensor"
)

// TestPublishedConvVariantRunsOneChannelQuantization publishes a
// convolutional network through the registry's variant pipeline at int8
// and int4 and checks that the codes a device's QModel multiplies for each
// convolution are one per-output-channel quantization of the base kernel:
// the published artifact, whose accuracy and size the registry recorded,
// is the function the integer kernels run. A kernel is [outC, taps], so output
// channel o is row o, quantized here as column o of the transpose.
func TestPublishedConvVariantRunsOneChannelQuantization(t *testing.T) {
	rng := tensor.NewRNG(33)
	base := nn.NewNetwork([]int{2, 6, 6},
		nn.NewConv2D(2, 5, 3, 3, 1, 1, rng), nn.NewReLU(),
		nn.NewConv2D(5, 3, 3, 3, 2, 0, rng), nn.NewFlatten(), nn.NewDense(12, 4, rng))
	reg := registry.New()
	versions, err := reg.RegisterWithVariants("conv", base, 1, registry.OptimizationSpec{
		Schemes:  []quant.Scheme{quant.Int8, quant.Int4},
		Evaluate: func(*nn.Network) float64 { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 3 {
		t.Fatalf("%d versions, want the base and two variants", len(versions))
	}
	for _, v := range versions[1:] {
		net, err := reg.Load(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		m, err := quant.NewQModel(net, v.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		// The size the registry records counts one scale per output
		// channel, as the model holds them.
		if got, want := v.Metrics.SizeBytes, m.SizeBytes(); got != want {
			t.Fatalf("%v: registry records %d bytes, the model holds %d", v.Scheme, got, want)
		}
		for i, l := range base.Layers() {
			conv, ok := l.(*nn.Conv2D)
			if !ok {
				continue
			}
			w := conv.W.Value
			outC, taps := w.Dim(0), w.Dim(1)
			wt := tensor.New(taps, outC)
			for o := 0; o < outC; o++ {
				for k := 0; k < taps; k++ {
					wt.Set2(k, o, w.At2(o, k))
				}
			}
			want, err := quant.QuantizeMatrix(wt, v.Scheme)
			if err != nil {
				t.Fatal(err)
			}
			codes, scales := m.ConvCodes(i)
			for o := 0; o < outC; o++ {
				if math.Float32bits(scales[o]) != math.Float32bits(want.Scales[o]) {
					t.Fatalf("%v layer %d: channel %d runs scale %v, one quantization gives %v",
						v.Scheme, i, o, scales[o], want.Scales[o])
				}
				for k := 0; k < taps; k++ {
					if got, w := codes[o*taps+k], want.Data[k*outC+o]; got != w {
						t.Fatalf("%v layer %d: channel %d tap %d runs code %d, one quantization gives %d",
							v.Scheme, i, o, k, got, w)
					}
				}
			}
		}
	}
}
