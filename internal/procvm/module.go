package procvm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"tinymlops/internal/wire"
)

// Capability is a bitmask of host resources a module may touch. The
// interpreter itself offers no I/O instructions yet; the flags gate what a
// *host integration* may wire into a pipeline stage, and deployment
// refuses modules that demand more than the device policy grants.
type Capability uint32

// Capability flags.
const (
	CapNone    Capability = 0
	CapSensor  Capability = 1 << iota // read a local sensor
	CapNetwork                        // open network connections
	CapStorage                        // persist data locally
)

// Has reports whether c includes all capabilities in want.
func (c Capability) Has(want Capability) bool { return c&want == want }

// String implements fmt.Stringer.
func (c Capability) String() string {
	if c == CapNone {
		return "none"
	}
	var buf bytes.Buffer
	add := func(f Capability, name string) {
		if c&f != 0 {
			if buf.Len() > 0 {
				buf.WriteByte('|')
			}
			buf.WriteString(name)
		}
	}
	add(CapSensor, "sensor")
	add(CapNetwork, "network")
	add(CapStorage, "storage")
	return buf.String()
}

// Module is a compiled processing pipeline: a constant pool, bytecode and a
// manifest (name, required capabilities, gas limit). Modules are immutable
// once built; Digest identifies the exact artifact for registry storage
// and integrity checks.
type Module struct {
	// Name labels the module in registries and reports.
	Name string
	// Caps are the capabilities the module requires from its host.
	Caps Capability
	// GasLimit bounds execution cost; 0 means "host default".
	GasLimit uint64
	// Scalars and Vectors form the constant pool.
	Scalars []float32
	Vectors [][]float32
	// Code is the bytecode (see ops.go for the ISA).
	Code []byte
}

const moduleMagic = "PVM1\n"

// Encode serializes the module to its canonical binary form.
func (m *Module) Encode() []byte {
	le := binary.LittleEndian
	appendF32s := func(b []byte, v []float32) []byte {
		b = le.AppendUint32(b, uint32(len(v)))
		for _, s := range v {
			b = le.AppendUint32(b, math.Float32bits(s))
		}
		return b
	}
	b := append([]byte(nil), moduleMagic...)
	b = le.AppendUint32(b, uint32(len(m.Name)))
	b = append(b, m.Name...)
	b = le.AppendUint32(b, uint32(m.Caps))
	b = le.AppendUint64(b, m.GasLimit)
	b = appendF32s(b, m.Scalars)
	b = le.AppendUint32(b, uint32(len(m.Vectors)))
	for _, v := range m.Vectors {
		b = appendF32s(b, v)
	}
	b = le.AppendUint32(b, uint32(len(m.Code)))
	return append(b, m.Code...)
}

// Digest returns the SHA-256 of the canonical encoding — the module's
// content address.
func (m *Module) Digest() [32]byte { return sha256.Sum256(m.Encode()) }

// DecodeModule parses a module from its canonical binary form. The input
// must be consumed exactly: truncated, trailing or garbage bytes all reject.
// So does a program Validate refuses: a module that decodes is one
// Builder.Build could have emitted.
func DecodeModule(data []byte) (*Module, error) {
	r := wire.NewReader(data)
	r.Magic(moduleMagic)
	// Operands are evaluated left to right, so the literal reads in wire order.
	m := &Module{Name: r.String(4096), Caps: Capability(r.U32()), GasLimit: r.U64()}
	m.Scalars = r.F32s(r.Count(1<<16, 4))
	m.Vectors = make([][]float32, r.Count(1<<12, 4)) // a vector is at least its length prefix
	for i := range m.Vectors {
		m.Vectors[i] = r.F32s(r.Count(1<<20, 4))
	}
	m.Code = append([]byte{}, r.Bytes(r.Count(1<<20, 1))...)
	err := r.Done()
	if err == nil {
		err = Validate(m)
	}
	if err != nil {
		return nil, fmt.Errorf("procvm: decode PVM1 module: %w", err)
	}
	return m, nil
}
