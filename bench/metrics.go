package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is set for
// end-to-end metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of delaydb sees, measured with tracing off.
// Bounds are shares of the parent's median. The time-based ones are the
// widest the driver allows because the reference box's speed drifts by
// tens of percent over minutes even after the quiet-half filter; see
// README.md.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "read_tmean_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "write_tmean_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "tail_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_query", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "rss_settled_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "ok_ratio", Unit: "ratio", Better: "higher", Bound: 0.001},
	{Name: "legit_delay_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "extract_quote_hours", Unit: "h", Better: "higher", Bound: 0.10},
}

// perLayer lists the traced run's metrics, one or more per module.
var perLayer = []metricDef{
	{Name: "sqlmini.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.prepare_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.exec_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.write_latch_wait_ratio", Unit: "ratio", Better: "lower"},
	{Name: "storage.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "storage.pool_evicts_per_query", Unit: "count", Better: "lower"},
	{Name: "storage.wal_records_per_commit", Unit: "count", Better: "higher"},
	{Name: "storage.wal_fsyncs_per_commit", Unit: "count", Better: "lower"},
	{Name: "storage.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "core.query_ns", Unit: "ns", Better: "lower"},
	{Name: "core.self_ns", Unit: "ns", Better: "lower"},
	{Name: "core.tuples_per_query", Unit: "count", Better: "lower"},
	{Name: "delay.quote_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "delay.observe_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "delay.price_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "detect.observe_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "detect.tracked_principals", Unit: "count", Better: "lower"},
	{Name: "server.handler_ns", Unit: "ns", Better: "lower"},
	{Name: "server.self_ns", Unit: "ns", Better: "lower"},
	{Name: "server.resp_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "server.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "cluster.route_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.hop_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.fanouts_per_write", Unit: "count", Better: "lower"},
	{Name: "cluster.scatter_legs_per_scan", Unit: "count", Better: "lower"},
	{Name: "cluster.read_retries", Unit: "count", Better: "lower"},
	{Name: "cluster.peer_errors", Unit: "count", Better: "lower"},
	{Name: "wire.roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.req_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "proc.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.heap_peak_mb", Unit: "MiB", Better: "lower"},
	{Name: "openloop.read_p50_us", Unit: "us", Better: "lower"},
	{Name: "openloop.read_p99_us", Unit: "us", Better: "lower"},
	{Name: "openloop.write_p50_us", Unit: "us", Better: "lower"},
	{Name: "openloop.write_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.sustained_share", Unit: "ratio", Better: "higher"},
	{Name: "loadgen.roundtrip_cpu_us", Unit: "us", Better: "lower"},
	{Name: "trace.sum_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.intended_share", Unit: "ratio", Better: "higher"},
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// contractLine is the last line of output the driver reads: the metrics
// of the requested kind, each with all its digits.
func contractLine(r *runResult) (string, error) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		if m.Unit != d.Unit {
			return "", fmt.Errorf("%s: metric %s measured in %q, declared in %q", r.Workload, d.Name, m.Unit, d.Unit)
		}
		metrics[d.Name] = m
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	return string(line), err
}
