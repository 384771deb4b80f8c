package compat

import (
	"fmt"
	"sort"
	"strings"

	"tinymlops/internal/device"
	"tinymlops/internal/registry"
)

// Report is the deployability verdict of one model version on one target.
type Report struct {
	Model  string
	Target string
	// Deployable means every operator has a native kernel and the model
	// fits flash.
	Deployable bool
	// MissingOps lists operators with no native kernel on the target.
	MissingOps []string
	// EmulatedBits is set when the variant's weight width has no hardware
	// support and is charged the emulation penalty (§III-A).
	EmulatedBits bool
	// FitsFlash is false when the artifact exceeds device storage.
	FitsFlash bool
}

// Summary renders the report as a compact cell for the E7 matrix:
// "native", "emu-bits", "no-fit", or "missing:<ops>".
func (r Report) Summary() string {
	switch {
	case !r.FitsFlash:
		return "no-fit"
	case len(r.MissingOps) > 0:
		return "missing:" + strings.Join(r.MissingOps, ",")
	case r.EmulatedBits:
		return "emu-bits"
	default:
		return "native"
	}
}

// Check evaluates a model version against target capabilities.
func Check(v *registry.ModelVersion, caps device.Capabilities) Report {
	rep := Report{
		Model:     fmt.Sprintf("%s@%s/%s", v.Name, v.ID, v.Scheme),
		Target:    caps.Name,
		FitsFlash: int64(v.Metrics.SizeBytes) <= caps.FlashBytes,
	}
	for _, op := range v.OpKinds {
		if !caps.SupportsOp(op) {
			rep.MissingOps = append(rep.MissingOps, op)
		}
	}
	sort.Strings(rep.MissingOps)
	rep.EmulatedBits = !caps.SupportsBits(v.Scheme.Bits())
	rep.Deployable = rep.FitsFlash && len(rep.MissingOps) == 0
	return rep
}

// Matrix evaluates every (model, target) pair — the sparse support matrix
// of §IV that motivates portable containers. Rows follow the models
// slice, columns the targets slice.
func Matrix(models []*registry.ModelVersion, targets []device.Capabilities) [][]Report {
	out := make([][]Report, len(models))
	for i, m := range models {
		row := make([]Report, len(targets))
		for j, tgt := range targets {
			row[j] = Check(m, tgt)
		}
		out[i] = row
	}
	return out
}

// Coverage summarizes a matrix: the fraction of (model, target) pairs that
// deploy natively.
func Coverage(matrix [][]Report) float64 {
	total, ok := 0, 0
	for _, row := range matrix {
		for _, rep := range row {
			total++
			if rep.Deployable {
				ok++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ok) / float64(total)
}
