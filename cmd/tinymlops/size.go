package main

import (
	"strings"

	"tinymlops"
)

// nativeExecProfiles lists the standard hardware profiles that execute
// the scheme on native kernels (QModel for integer schemes, the float
// engine for float32); everywhere else the variant falls back to
// fake-quantized float and pays the emulation penalty.
func nativeExecProfiles(scheme tinymlops.Scheme) string {
	var names []string
	for _, p := range tinymlops.StandardProfiles() {
		if p.SupportsBits(scheme.Bits()) {
			names = append(names, p.Name)
		}
	}
	switch len(names) {
	case 0:
		return "none (fake-quant float fallback)"
	case len(tinymlops.StandardProfiles()):
		return "all profiles"
	}
	return strings.Join(names, ", ")
}
