package main

import "privmem/internal/experiments"

// layerMetric is one per-layer metric the traced run reports.
type layerMetric struct{ name, unit string }

// perLayer lists the traced run's metrics in BENCHMARK.json order.
var perLayer = func() []layerMetric {
	var l []layerMetric
	for _, id := range experiments.IDs() {
		l = append(l, layerMetric{"experiments." + id + ".ms", "ms"}, layerMetric{"experiments." + id + ".alloc_mb", "MB"})
	}
	for _, n := range []string{
		"experiments.render_ms", "experiments.unattributed_ms", "experiments.warm_pass_ms", "experiments.pass_wall_ms",
		"sunspot.localize_ms", "weatherman.localize_ms", "solarsim.generate_ms", "weather.field_ms",
		"nettrace.simulate_ms", "fingerprint.train_ms", "fingerprint.identify_ms", "gateway.shape_ms",
		"hmm.decode_ms", "home.simulate_ms", "meter.read_ms",
		"fleet.wall_ms", "fleet.gen_ms", "fleet.worker_ms",
		"home.simulate_day_ms", "meter.read_day_ms", "nettrace.simulate_day_ms",
		"trace.op_wall_ms", "trace.untraced_op_wall_ms",
	} {
		l = append(l, layerMetric{n, "ms"})
	}
	return append(l,
		layerMetric{"serve.handler_us", "us"},
		layerMetric{"serve.request_us", "us"},
		layerMetric{"serve.cache_get_ns", "ns"},
		layerMetric{"serve.allocs_per_req", "count"},
		layerMetric{"serve.alloc_bytes_per_req", "B"},
		layerMetric{"serve.hits", "count"},
		layerMetric{"serve.misses", "count"},
		layerMetric{"serve.generations", "count"},
		layerMetric{"serve.coalesced", "count"},
		layerMetric{"serve.slo_breaches", "count"},
		layerMetric{"serve.write_errors", "count"},
		layerMetric{"serve.hit_share", "ratio"},
		layerMetric{"hmm.stream_push_us", "us"},
		layerMetric{"hmm.stream_push_dense_us", "us"},
		layerMetric{"niom.stream_push_ns", "ns"},
		layerMetric{"runtime.alloc_mb", "MB"},
		layerMetric{"runtime.gc_cycles", "count"},
		layerMetric{"trace.overhead_share", "ratio"},
	)
}()
