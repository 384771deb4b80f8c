package device

import (
	"fmt"
	"time"
)

// Class labels a family of edge hardware.
type Class int

// Device classes, ordered roughly by compute capability.
const (
	ClassM0         Class = iota // FPU-less microcontroller
	ClassM4                      // MCU with FPU and DSP extensions
	ClassM7                      // high-end MCU
	ClassNPU                     // MCU with an int8 neural accelerator
	ClassMobile                  // smartphone-class SoC
	ClassEdgeServer              // wall-powered edge gateway
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassM0:
		return "cortex-m0"
	case ClassM4:
		return "cortex-m4"
	case ClassM7:
		return "cortex-m7"
	case ClassNPU:
		return "mcu-npu"
	case ClassMobile:
		return "mobile"
	case ClassEdgeServer:
		return "edge-server"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Capabilities is the static hardware description of a device type.
type Capabilities struct {
	Name  string
	Class Class

	// ClockHz is the core clock.
	ClockHz float64
	// MACsPerCycle maps a weight bit width (32, 8, 4, 2, 1) to the
	// multiply-accumulates the hardware retires per cycle at that width.
	// A missing entry means no native support: the width is charged the
	// float32 rate divided by EmulationPenalty (unpacking overhead) —
	// the §III-A observation that low precision buys nothing without
	// hardware support.
	MACsPerCycle map[int]float64
	// EmulationPenalty (>1) divides the fp32 rate when emulating an
	// unsupported bit width.
	EmulationPenalty float64

	// FlashBytes bounds model storage; RAMBytes bounds working memory.
	FlashBytes int64
	RAMBytes   int64

	// EnergyPerMACJoule is the marginal energy per multiply-accumulate.
	EnergyPerMACJoule float64
	// EnergyPerTxByteJoule is the radio energy per transmitted byte.
	EnergyPerTxByteJoule float64
	// BatteryJoule is the full-charge battery capacity (0 = wall powered).
	BatteryJoule float64

	// SupportedOps lists operator kinds with vendor kernels on this
	// target. Models using other ops cannot be deployed natively (§IV) —
	// though they may still run inside the portable procvm sandbox.
	SupportedOps []string
}

// SupportsOp reports whether the op kind has a native kernel.
func (c *Capabilities) SupportsOp(kind string) bool {
	for _, k := range c.SupportedOps {
		if k == kind {
			return true
		}
	}
	return false
}

// SupportsBits reports whether the bit width has native hardware support.
func (c *Capabilities) SupportsBits(bits int) bool {
	_, ok := c.MACsPerCycle[bits]
	return ok
}

// InferenceLatency estimates the wall time of one inference of macs
// multiply-accumulates at the given weight bit width, honoring hardware
// support: unsupported widths pay the emulation penalty on the fp32 rate.
func (c *Capabilities) InferenceLatency(macs int64, bits int) time.Duration {
	rate, ok := c.MACsPerCycle[bits]
	if !ok {
		rate = c.MACsPerCycle[32] / c.EmulationPenalty
	}
	if rate <= 0 {
		rate = 1e-3
	}
	cycles := float64(macs) / rate
	seconds := cycles / c.ClockHz
	return time.Duration(seconds * float64(time.Second))
}

// InferenceEnergy estimates the energy of one inference in joules.
func (c *Capabilities) InferenceEnergy(macs int64) float64 {
	return float64(macs) * c.EnergyPerMACJoule
}

// WallPowered reports whether the device has no battery constraint.
func (c *Capabilities) WallPowered() bool { return c.BatteryJoule == 0 }

// coreOps are the operator kinds every profile supports.
var coreOps = []string{"dense", "relu", "flatten", "softmax"}

func withOps(extra ...string) []string {
	return append(append([]string(nil), coreOps...), extra...)
}

// StandardProfiles returns the six reference device profiles used across
// the experiments. Throughput, memory and energy figures are order-of-
// magnitude representative of each class (the experiments depend on the
// relative ordering, not the absolute values).
func StandardProfiles() []Capabilities {
	return []Capabilities{
		{
			Name: "m0-sensor", Class: ClassM0,
			ClockHz: 48e6,
			// No FPU: fp32 in software is slow; int8 runs at 0.5 MAC/cycle.
			MACsPerCycle:     map[int]float64{32: 0.05, 8: 0.5, 1: 2},
			EmulationPenalty: 3,
			FlashBytes:       256 << 10, RAMBytes: 32 << 10,
			EnergyPerMACJoule: 60e-12, EnergyPerTxByteJoule: 2e-6,
			BatteryJoule: 1200, // coin cell
			SupportedOps: withOps("sigmoid"),
		},
		{
			Name: "m4-wearable", Class: ClassM4,
			ClockHz:          120e6,
			MACsPerCycle:     map[int]float64{32: 0.5, 8: 2},
			EmulationPenalty: 2,
			FlashBytes:       1 << 20, RAMBytes: 256 << 10,
			EnergyPerMACJoule: 25e-12, EnergyPerTxByteJoule: 1.5e-6,
			BatteryJoule: 5000,
			SupportedOps: withOps("conv2d", "maxpool2d", "sigmoid", "tanh"),
		},
		{
			Name: "m7-camera", Class: ClassM7,
			ClockHz:          480e6,
			MACsPerCycle:     map[int]float64{32: 1, 8: 4},
			EmulationPenalty: 2,
			FlashBytes:       2 << 20, RAMBytes: 512 << 10,
			EnergyPerMACJoule: 18e-12, EnergyPerTxByteJoule: 1.2e-6,
			BatteryJoule: 20000,
			SupportedOps: withOps("conv2d", "maxpool2d", "batchnorm1d", "sigmoid", "tanh"),
		},
		{
			Name: "npu-board", Class: ClassNPU,
			ClockHz: 240e6,
			// The NPU retires 64 int8 MACs/cycle but has no fp32 pipeline
			// beyond a slow fallback and no sub-int8 modes.
			MACsPerCycle:     map[int]float64{32: 0.5, 8: 64, 4: 128},
			EmulationPenalty: 4,
			FlashBytes:       4 << 20, RAMBytes: 1 << 20,
			EnergyPerMACJoule: 4e-12, EnergyPerTxByteJoule: 1.2e-6,
			BatteryJoule: 20000,
			SupportedOps: withOps("conv2d", "maxpool2d"),
		},
		{
			Name: "phone", Class: ClassMobile,
			ClockHz:          2.4e9,
			MACsPerCycle:     map[int]float64{32: 8, 8: 32, 4: 64},
			EmulationPenalty: 1.5,
			FlashBytes:       32 << 30, RAMBytes: 4 << 30,
			EnergyPerMACJoule: 8e-12, EnergyPerTxByteJoule: 0.6e-6,
			BatteryJoule: 40000,
			SupportedOps: withOps("conv2d", "maxpool2d", "batchnorm1d", "dropout", "sigmoid", "tanh"),
		},
		{
			Name: "edge-gateway", Class: ClassEdgeServer,
			ClockHz:          3.0e9,
			MACsPerCycle:     map[int]float64{32: 64, 8: 256, 4: 512, 2: 512, 1: 1024},
			EmulationPenalty: 1.2,
			FlashBytes:       512 << 30, RAMBytes: 16 << 30,
			EnergyPerMACJoule: 2e-12, EnergyPerTxByteJoule: 0.1e-6,
			BatteryJoule: 0, // wall powered
			SupportedOps: withOps("conv2d", "maxpool2d", "batchnorm1d", "dropout", "sigmoid", "tanh"),
		},
	}
}

// ProfileByName returns the standard profile with the given name.
func ProfileByName(name string) (Capabilities, error) {
	for _, p := range StandardProfiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Capabilities{}, fmt.Errorf("device: unknown profile %q", name)
}
