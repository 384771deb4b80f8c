package tensor_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"tinymlops/internal/compat"
	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/tensor"
)

// windowCase is one convolution-then-pooling geometry of the golden table.
type windowCase struct {
	name                string
	inC, h, w, outC     int
	kh, kw, stride, pad int
	poolK, poolStride   int
}

// windowCases covers stride 1 and 2, pad 0 and 1, KH ≠ KW, H ≠ W, a stride
// that does not divide its map, and a window equal to its (padded) map, for
// the convolution and for the pool.
var windowCases = []windowCase{
	{name: "s1p0", inC: 2, h: 6, w: 6, outC: 3, kh: 3, kw: 3, stride: 1, pad: 0, poolK: 2, poolStride: 2},
	{name: "s2p1-rect", inC: 1, h: 7, w: 5, outC: 2, kh: 3, kw: 2, stride: 2, pad: 1, poolK: 2, poolStride: 1},
	{name: "s1p1-same", inC: 3, h: 5, w: 5, outC: 4, kh: 3, kw: 3, stride: 1, pad: 1, poolK: 3, poolStride: 2},
	{name: "s2p0-ragged", inC: 2, h: 8, w: 7, outC: 3, kh: 2, kw: 3, stride: 2, pad: 0, poolK: 2, poolStride: 2},
	{name: "conv-window-is-map", inC: 2, h: 3, w: 4, outC: 2, kh: 3, kw: 4, stride: 1, pad: 0, poolK: 1, poolStride: 1},
	{name: "conv-window-is-padded-map", inC: 1, h: 2, w: 2, outC: 3, kh: 4, kw: 4, stride: 3, pad: 1, poolK: 1, poolStride: 2},
	{name: "pool-window-is-map", inC: 1, h: 4, w: 4, outC: 2, kh: 1, kw: 1, stride: 1, pad: 0, poolK: 4, poolStride: 4},
}

// bits digests a float32 slice by its bit patterns: "count:sha256[:8]".
func bits(v []float32) string {
	buf := make([]byte, 4*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(f))
	}
	sum := sha256.Sum256(buf)
	return fmt.Sprintf("%d:%x", len(v), sum[:8])
}

// windowRows runs one geometry at one batch size through the layers alone
// (forward, and the gradients Backward leaves), then as a network through
// nn.Forward, nn.ForwardBatch, quant.QModel at int8 and int4, and a compiled
// procvm module (its bytes, and every row's output and gas).
func windowRows(t *testing.T, c windowCase, batch int) []string {
	t.Helper()
	rng := tensor.NewRNG(0x77696e646f77) // "window"
	conv := nn.NewConv2D(c.inC, c.outC, c.kh, c.kw, c.stride, c.pad, rng)
	for i := range conv.B.Value.Data {
		conv.B.Value.Data[i] = float32(i+1) / 8 // He init leaves the bias zero
	}
	pool := nn.NewMaxPool2D(c.poolK, c.poolStride)
	x := tensor.Randn(rng, 1, batch, c.inC, c.h, c.w)

	var rows []string
	row := func(path, val string) {
		rows = append(rows, fmt.Sprintf("%s/b%d/%s %s", c.name, batch, path, val))
	}

	y := conv.Forward(x, true)
	row("conv.forward", fmt.Sprint(y.Shape(), " ", bits(y.Data)))
	dx := conv.Backward(tensor.Randn(rng, 1, y.Shape()...))
	row("conv.dx", bits(dx.Data))
	row("conv.dW", bits(conv.W.Grad.Data))
	row("conv.db", bits(conv.B.Grad.Data))
	z := pool.Forward(y, true)
	row("pool.forward", fmt.Sprint(z.Shape(), " ", bits(z.Data)))
	row("pool.dx", bits(pool.Backward(tensor.Randn(rng, 1, z.Shape()...)).Data))

	net := nn.NewNetwork([]int{c.inC, c.h, c.w}, conv, nn.NewReLU(), pool, nn.NewFlatten())
	row("nn.Forward", bits(net.Forward(x, false).Data))
	row("nn.ForwardBatch", bits(net.ForwardBatch(x, nn.NewScratch()).Data))
	for _, scheme := range []quant.Scheme{quant.Int8, quant.Int4} {
		qm, err := quant.NewQModel(net, scheme)
		if err != nil {
			t.Fatalf("%s: NewQModel(%v): %v", c.name, scheme, err)
		}
		row("quant."+scheme.String(), bits(qm.ForwardBatch(x, quant.NewQScratch()).Data))
	}
	mod, err := compat.CompileProcVM(net, compat.CompileOptions{Name: c.name})
	if err != nil {
		t.Fatalf("%s: CompileProcVM: %v", c.name, err)
	}
	digest := mod.Digest()
	row("procvm.module", fmt.Sprintf("%x", digest[:8]))
	rt := procvm.NewRuntime(mod.Caps)
	per := x.Size() / batch
	for n := 0; n < batch; n++ {
		res, err := rt.Run(mod, x.Data[n*per:(n+1)*per])
		if err != nil {
			t.Fatalf("%s: Run row %d: %v", c.name, n, err)
		}
		row(fmt.Sprintf("procvm.run%d", n), fmt.Sprintf("gas=%d %s", res.GasUsed, bits(res.Output.Vec)))
	}
	return rows
}

// TestWindowGolden pins every path a sliding window takes — the float
// engine, the compiled batch program, the integer kernels and the portable
// VM — against testdata/window.golden, recorded at commit a8396c5, when each
// of them still owned its own im2col, pooling loop and output-size formula.
func TestWindowGolden(t *testing.T) {
	var got []string
	for _, c := range windowCases {
		for _, batch := range []int{1, 3} {
			got = append(got, windowRows(t, c, batch)...)
		}
	}
	data, err := os.ReadFile("testdata/window.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d rows computed, %d recorded", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("\n got %s\nwant %s", got[i], want[i])
		}
	}
}
