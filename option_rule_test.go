package tinymlops

import (
	"regexp"
	"strings"
	"testing"
)

// optionStruct names the structs the rule covers: every exported
// *Config, *Options, *Policy and *Spec struct under internal/.
var optionStruct = regexp.MustCompile(`(Config|Options|Policy|Spec)$`)

// keptOption is the rule's one named exception. selector.DefaultPolicy sets
// BatteryAware to true, while every pinned Policy{…} literal leaves it false —
// bench/matrix.go's schemePin among them — so a constant would change what
// bench/ serves.
const keptOption = "selector.Policy.BatteryAware"

// TestOptionsAreLiveSurface is the pin on the option surface, the sibling of
// TestFacadeIsLiveSurface. An exported field of an option struct under
// internal/ stays iff something sets it other than its own package's
// default-filling code: a non-test file (cmd/ and examples/ included) or any
// file of the frozen bench/ module. A test is not a caller: a field only
// tests set has one value in the program; make it a constant and delete what
// only it reached, its tests included.
//
// A setter is a write of fieldWrites, the walk TestFieldsAreSet reads too.
// Default-filling code is, in the declaring package's non-test files, every
// write but a literal (c.F = d), and every literal inside a function that
// returns the struct (DefaultPolicy); a method that sets a field for its
// caller is such code too. A pass-through (F: cfg.G, with G itself an option
// field) sets F only if something sets G.
func TestOptionsAreLiveSurface(t *testing.T) {
	live, structs := liveOptions(parseRepo(t))
	if dead := deadKeys(live); len(dead) > 0 {
		t.Fatalf("%d of %d option fields under internal/ are set by nothing but tests and their own package's default-filling code; make each a constant and delete what only it reached:\n  %s",
			len(dead), len(live), strings.Join(dead, "\n  "))
	}
	t.Logf("options: %d exported fields in %d option structs, each set by a non-test caller or bench/", len(live), structs)
}

// optionCases: a field set through a value the syntax cannot type is set
// for its own struct only.
var optionCases = []ruleCase{
	{name: "map-index", dead: []string{"mutant.AConfig.F"}, files: map[string]string{
		"internal/mutant/x.go":      "type AConfig struct{ F int }\ntype BConfig struct{ F int }\nvar M = map[string]BConfig{}",
		"internal/mutant/x_test.go": "var _ = AConfig{F: 1}",
		"internal/other/y.go":       "import \"tinymlops/internal/mutant\"\nfunc init() { x := mutant.M[\"k\"]; x.F = 1 }"}},
}

func TestOptionRuleResolvesByType(t *testing.T) {
	runCases(t, optionCases, func(c *census) ([]string, error) {
		live, _ := liveOptions(c)
		return deadKeys(live), nil
	})
}

// liveOptions reports, for each exported field of an option struct declared
// at package level in a non-test file under internal/
// ("offload.ReplanConfig.Every"), whether a write other than its own
// package's default-filling code sets it, or it is keptOption, and counts
// the option structs.
func liveOptions(c *census) (live map[string]bool, structs int) {
	fields, owners := exportedFields(c)
	options := map[string]bool{}
	for obj, key := range owners {
		if obj.Exported() && obj.Parent() == obj.Pkg().Scope() && optionStruct.MatchString(obj.Name()) && key != "nn.LayerSpec" {
			options[key] = true // LayerSpec is a wire-format row, not an option
		}
	}
	live = map[string]bool{}
	for _, key := range fields {
		if options[key[:strings.LastIndexByte(key, '.')]] {
			live[key] = key == keptOption
		}
	}
	settle(live, fieldWrites(c, fields), func(w write) bool { return !w.defaults })
	return live, len(options)
}
