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
// Fleet-wide operations — DeployMany, SyncTelemetry, SettleAll — fan out
// over the platform's internal/engine worker pool (Config.Workers), and
// Deployment.InferBatch serves whole query bursts through one batched
// forward pass with reusable scratch buffers; both are the §I "millions of
// users" story made operational, with results deterministic at any worker
// count.
package core
