package main

import (
	"strings"

	"tinymlops"
)

// nativeExecProfiles lists the standard hardware profiles that retire the
// scheme's MACs natively. Every profile runs the variant on the same
// kernels (QModel for integer schemes, the float engine for float32); the
// rest pay the emulation penalty on the modelled clock.
func nativeExecProfiles(scheme tinymlops.Scheme) string {
	var names []string
	for _, p := range tinymlops.StandardProfiles() {
		if p.SupportsBits(scheme.Bits()) {
			names = append(names, p.Name)
		}
	}
	switch len(names) {
	case 0:
		return "none (emulated everywhere)"
	case len(tinymlops.StandardProfiles()):
		return "all profiles"
	}
	return strings.Join(names, ", ")
}
