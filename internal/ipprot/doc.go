// Package ipprot implements the model intellectual-property protections
// of §V: encryption at rest with per-model wrapped keys (the
// OpenVINO/CoreML mechanism the paper cites), static white-box
// watermarking (Uchida-style projection embedding), dynamic black-box
// watermarking (trigger sets), the indirect model-stealing attack itself
// (student-teacher extraction against a black-box API) with the
// prediction-poisoning defenses the paper lists (rounding, top-1, noise,
// deceptive perturbation), a PRADA-style stealing-query detector, and
// key-gated weight scrambling (ref [83]).
//
// The paper's premise is that shipping a model to the edge hands the
// bytes to the adversary: unlike a cloud API, the attacker holds the
// flash image, so protection layers — encryption against copying,
// watermarks against laundering, poisoning against extraction — have to
// survive on untrusted hardware. The platform applies these per
// deployment: every customer's copy carries its own mark (see
// core.DeployConfig.Watermark), which is also why watermarked
// deployments opt out of bit-exact machinery like delta updates and
// split execution.
//
// A StaticWMConfig has no fields: the mark rides the first dense layer, and
// the embedding strength (4000 steps at 0.05, λ = 0.005, margin 2) and the
// extraction attack's batch size (32) are constants.
package ipprot
