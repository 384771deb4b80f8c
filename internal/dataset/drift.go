package dataset

import (
	"fmt"
	"math"

	"tinymlops/internal/tensor"
)

// DriftKind names a drift injection mode for DriftStream.
type DriftKind int

// Supported drift kinds.
const (
	DriftNone DriftKind = iota
	// DriftMeanShift adds Magnitude to every feature after onset.
	DriftMeanShift
	// DriftRotate rotates features 0 and 1 by Magnitude radians after onset.
	DriftRotate
	// DriftScale multiplies features by (1+Magnitude) after onset.
	DriftScale
)

// String implements fmt.Stringer.
func (k DriftKind) String() string {
	switch k {
	case DriftNone:
		return "none"
	case DriftMeanShift:
		return "mean-shift"
	case DriftRotate:
		return "rotate"
	case DriftScale:
		return "scale"
	default:
		return fmt.Sprintf("drift(%d)", int(k))
	}
}

// DriftStream draws i.i.d. examples from a base dataset and injects a
// distribution change at a fixed onset time. It models a fleet device whose
// input distribution silently shifts in the field (§III-B).
type DriftStream struct {
	Base      *Dataset
	Onset     int // tick at which drift begins
	Kind      DriftKind
	Magnitude float64

	rng *tensor.RNG
	t   int
}

// NewDriftStream returns a stream over base with the given drift schedule.
func NewDriftStream(rng *tensor.RNG, base *Dataset, onset int, kind DriftKind, magnitude float64) *DriftStream {
	return &DriftStream{Base: base, Onset: onset, Kind: kind, Magnitude: magnitude, rng: rng}
}

// Next returns the features and label of the next example.
func (s *DriftStream) Next() ([]float32, int) {
	es := s.Base.exampleSize()
	i := s.rng.Intn(s.Base.Len())
	x := make([]float32, es)
	copy(x, s.Base.X.Data[i*es:(i+1)*es])
	label := s.Base.Y[i]
	if s.t >= s.Onset {
		switch s.Kind {
		case DriftMeanShift:
			for f := range x {
				x[f] += float32(s.Magnitude)
			}
		case DriftRotate:
			if es >= 2 {
				c, sn := float32(math.Cos(s.Magnitude)), float32(math.Sin(s.Magnitude))
				a, b := x[0], x[1]
				x[0] = c*a - sn*b
				x[1] = sn*a + c*b
			}
		case DriftScale:
			for f := range x {
				x[f] *= 1 + float32(s.Magnitude)
			}
		}
	}
	s.t++
	return x, label
}
