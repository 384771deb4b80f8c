package main

import "strings"

// metricSpec names one metric, its unit and which way is better, as
// BENCHMARK.json lists it.
type metricSpec struct {
	name, unit, better string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by; exact marks a count that must repeat exactly for the same
	// seed.
	bound float64
	exact bool
}

// endToEnd is the eight end-to-end metrics, each reported for every
// workload. The first five are the ones BENCHMARK.json gates on: its
// contract wants metrics that are never zero, and the last three are zero
// by design somewhere (no op may fail; the federated path has no device
// model). They are still printed, compared and required to repeat exactly.
//
// The bounds on the timed metrics are as wide as BENCHMARK.json's contract
// lets them be: on the shared 2-core box the baseline was taken on, ten
// runs of one binary spread (quartile distance over median) by 0.02 in a
// quiet quarter of an hour and by 0.1 in a busy one, and the driver that
// checks the benchmark has seen busier. The byte count is exact for one seed
// and moves with the seed by as much as 0.1 (fed_round's varint partials).
// README.md has the spreads.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "throughput_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "op_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "allocs_per_unit", unit: "count", better: "lower", bound: 0.05},
	{name: "vendor_bytes_per_unit", unit: "B", better: "lower", bound: 0.25, exact: true},
	{name: "failed_share", unit: "ratio", better: "lower", exact: true},
	{name: "modelled_us_per_unit", unit: "us", better: "lower", exact: true},
	{name: "modelled_mj_per_unit", unit: "mJ", better: "lower", exact: true},
}

// perLayer is every per-layer metric a traced run reports, as
// <module>.<metric>. A workload whose path does not touch a layer reports
// that layer's metrics as 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	add := func(better string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{name: n, unit: unitFromName(n), better: better})
		}
	}
	add("lower",
		"tensor.matmul_f32_us", "tensor.matmul_i8_us", "tensor.matmul_i4_us", "tensor.codec_us",
		"nn.forward_batch16_us", "nn.forward_single_us", "nn.encode_delta_us", "nn.apply_delta_us",
		"nn.marshal_us", "nn.unmarshal_us", "nn.train_client_us",
		"quant.forward_i8_batch16_us", "quant.forward_i4_batch16_us", "quant.new_qmodel_us",
		"procvm.module_forward_us", "procvm.prepost_us",
		"metering.charge_ns", "metering.build_report_us", "metering.settle_plain_us",
		"metering.tcp_roundtrip_us", "metering.report_bytes",
		"observe.monitor_observe_ns_per_feature", "observe.sync_us", "observe.telemetry_bytes_per_query",
		"device.run_inference_ns", "device.modelled_busy_us_per_query", "device.energy_mj_per_query",
		"device.install_us", "device.flashed_bytes_per_update",
		"engine.arena_acquire_ns", "engine.foreach_overhead_us",
	)
	for _, prefix := range []string{"core.infer_batch16_us.", "core.infer_us.", "core.offload_infer_us."} {
		for _, k := range kinds {
			add("lower", prefix+k.name)
		}
	}
	add("lower",
		"core.self_us", "core.deploy_us", "core.update_us", "core.evidence_us_per_query",
		"offload.qab_codec_us", "offload.session_exec_us", "offload.cloud_submit_us",
		"offload.shed_share", "offload.fallback_share", "offload.max_queue_depth",
		"offload.activation_bytes_per_query",
		"enclave.suffix_us", "enclave.provision_us",
		"compat.compile_us", "market.best_split_us",
		"ipprot.watermark_embed_us", "ipprot.encrypt_us", "ipprot.decrypt_us",
		"registry.publish_us", "registry.delta_us", "registry.delta_cached_ns", "registry.load_us",
		"registry.blob_bytes_per_publish",
		"swarm.build_manifest_us", "swarm.transfer_us", "swarm.chunks_verified_per_update",
		"swarm.registry_egress_bytes_per_update", "swarm.hash_rejects",
		"selector.select_us", "rollout.controller_self_us", "rollout.ship_bytes_per_update",
		"fed.codec_us", "fed.mask_us", "fed.flat_round_ms", "fed.hier_over_flat", "fed.allocs_per_client",
		"fed.cloud_uplink_bytes_per_client", "fed.edge_uplink_bytes_per_client",
		"verify.prove_us", "verify.verify_us", "verify.batch_verify_us_per_proof", "verify.proof_bytes",
		"harness.op_p95_us", "harness.op_p99_us", "harness.trace_overhead_share", "harness.drift_share",
		"harness.alloc_bytes_per_unit", "harness.gc_pause_share",
	)
	add("higher",
		"offload.cloud_batch_mean", "swarm.peer_share", "rollout.delta_share", "fed.test_accuracy",
		"harness.samples", "harness.kernel_share", "harness.verify_share",
	)
	return out
}

// unitFromName reads a per-layer metric's unit off its name.
func unitFromName(name string) string {
	base := name
	if i := strings.Index(name, "_us."); i >= 0 {
		base = name[:i+3] // per-kind medians: core.infer_us.<kind>
	}
	switch {
	case strings.Contains(base, "_ns"):
		return "ns"
	case strings.HasSuffix(base, "_ms"):
		return "ms"
	case strings.Contains(base, "_us"):
		return "us"
	case strings.Contains(base, "_mj"):
		return "mJ"
	case strings.Contains(base, "bytes"):
		return "B"
	case strings.HasSuffix(base, "_share"), strings.HasSuffix(base, "_over_flat"), strings.HasSuffix(base, "_accuracy"):
		return "ratio"
	}
	return "count"
}
