// Package selector implements the per-device model-variant selection of
// §III-A: given the variants the registry derived from a base model and a
// device's current context (hardware capabilities, battery, charger,
// network), pick the variant that maximizes a multi-objective utility of
// accuracy, inference latency, download cost and energy — exactly the
// trade-off the paper describes ("a smaller model to a device with limited
// resources, a large model to a powerful device, a faster download on a
// slow connection, a frugal model on a low battery").
//
// The utility's weights (accuracy 1.0, latency 0.4, download 0.15, energy
// 0.15) and its latency and download budgets (100 ms, 60 s) are constants;
// a Policy carries only hard constraints and whether the energy weight
// follows the battery (off in the zero Policy, on in DefaultPolicy).
//
// Selection runs at initial deployment and again on every OTA update:
// a new base version regenerates the variant matrix, and each device's
// Deployment.Update re-decides which variant of the new generation fits
// its current battery, link and memory state.
package selector
