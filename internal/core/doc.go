// Package core assembles the TinyMLOps platform of Figure 1: one facade
// that owns the model registry and optimization pipeline (§III-A), deploys
// per-device variants with encrypted artifacts and metered query packages
// (§III-A/C, §V), runs the on-device pipeline (procvm preprocessing →
// metering gate → inference on the device cost model → drift monitoring →
// postprocessing), ships anonymized telemetry when devices reach WiFi
// (§III-B), settles usage with the vendor (§III-C), and retrains the
// global model federatedly before re-deriving every variant (§III-D).
//
// Every query path — Deployment.Infer, Deployment.InferBatch and
// OffloadSession.Infer — is one locked pipeline (serveLocked) over one
// internal/exec executor; the paths differ only in the execute step.
//
// What a deployment runs is an image: the decoded artifact and the executor
// lowered from it (image.go, the one file that builds executors). The
// platform keeps one per (version, executor kind) in a single-flight,
// reference-counted table; every unwatermarked deployment, its rollback
// slot and the cloud side of Platform.Offload hold a pointer into it, so an
// OTA wave decodes and lowers a version once however many devices move to
// it. A watermarked deployment keeps a private image: the marked copy is
// the device's own. Transfer, flash and energy are still charged per device.
//
// Fleet-wide operations — DeployMany, SyncTelemetry, SettleAll — fan out
// over the platform's internal/engine worker pool (Config.Workers), and
// Deployment.InferBatch serves whole query bursts through one batched
// forward pass with reusable scratch buffers; both are the §I "millions of
// users" story made operational, with results deterministic at any worker
// count.
package core
