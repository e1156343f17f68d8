package main

import (
	"ccnvm/internal/sim"
)

// Workload names. BENCHMARK.json lists the same four with the reason
// each exists; TestBenchmarkJSONMatchesCode keeps the two in step.
const (
	wlPut   = "kv_put"
	wlGet   = "kv_get"
	wlChurn = "kv_churn"
	wlSim   = "sim_fig5"
)

var workloadNames = []string{wlPut, wlGet, wlChurn, wlSim}

var (
	onAll   = workloadNames
	onKV    = []string{wlPut, wlGet, wlChurn}
	onWrite = []string{wlPut, wlChurn}
	onRead  = []string{wlGet, wlChurn}
	onChurn = []string{wlChurn}
	onSim   = []string{wlSim}
)

// Clock says which time base a metric is taken in. A host metric moves
// with the machine the benchmark runs on; a sim metric is what the
// modelled hardware would take and must not move under a host-speed
// optimisation; a count is neither.
const (
	clockHost  = "host"
	clockSim   = "sim"
	clockCount = "count"
)

// metric describes one named number the benchmark prints.
type metric struct {
	Name   string
	Unit   string
	Better string   // "higher" or "lower"
	Bound  float64  // end-to-end only: tolerated worsening as a share of the parent's median
	Clock  string   // clockHost, clockSim or clockCount
	On     []string // workloads that produce it; elsewhere the layer does no work and it reads 0
	Doc    string
}

func (m metric) on(workload string) bool {
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd are the metrics a user of the stack sees. Every workload
// emits every one of them, none is ever zero, and each carries its own
// regression bound.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25, clockHost, onAll,
		"median over rounds of one round's set-up: input generation, store/DB/server build, preload, dial; speed-corrected"},
	{"ops_per_s", "1/s", "higher", 0.2, clockHost, onAll,
		"acked wire requests (simulated memory ops on sim_fig5) per host second, median over rounds; speed-corrected unless the loop is open"},
	{"lat_p50_us", "us", "lower", 0.25, clockHost, onAll,
		"median latency of one unit of work: a wire request, or one design x trace simulation cell; speed-corrected"},
	{"nvm_lines_per_op", "lines/op", "lower", 0.03, clockCount, onAll,
		"NVM line transfers (reads + writes, all regions) per acked op"},
	{"sim_cycles_per_op", "cycles/op", "lower", 0.02, clockSim, onAll,
		"modelled-hardware cycles per acked op (Store.Now delta, or cc-NVM trace cycles on sim_fig5)"},
	{"recover_ms", "ms", "lower", 0.25, clockHost, onAll,
		"crash image -> LoadImage -> Reboot -> (kv.Open) -> first verified read, median of the repeats; speed-corrected"},
	{"peak_rss_mb", "MB", "lower", 0.15, clockHost, onAll,
		"VmHWM of the workload's process when the last round has ended, before the crash image is taken"},
}

// perLayer are the metrics of single layers, named <layer>.<name>.
// They carry no bound; README.md says which end-to-end metric each one
// should move, and on which workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	ms := []metric{
		// server = kv.Server + the JSON-lines wire.
		{"server.self_us", "us", "lower", 0, clockHost, onKV, "TCP request span minus the in-process DB span of the same op"},
		{"server.ping_us", "us", "lower", 0, clockHost, onKV, "mean round trip of a ping request on an idle server"},
		{"server.req_bytes", "B", "lower", 0, clockCount, onKV, "mean request line length"},
		{"server.resp_bytes", "B", "lower", 0, clockCount, onKV, "mean response line length"},
		{"server.conc_gain", "ratio", "higher", 0, clockHost, onKV, "closed-loop ops_per_s at 2 connections over 1 connection"},

		// kv = kv.DB: frame log, group commit, write controller, compactor.
		{"kv.self_us", "us", "lower", 0, clockHost, onKV, "in-process DB span minus the store-level span of the same op"},
		{"kv.put_us", "us", "lower", 0, clockHost, onWrite, "mean in-process DB.Batch span"},
		{"kv.get_us", "us", "lower", 0, clockHost, onRead, "mean in-process DB.Get span"},
		{"kv.batches_per_flush", "ratio", "higher", 0, clockCount, onWrite, "acked batches per explicit epoch drain"},
		{"kv.log_bytes_per_user_byte", "ratio", "lower", 0, clockCount, onWrite, "log bytes appended per byte of key and value put"},
		{"kv.compact_passes", "count", "lower", 0, clockCount, onChurn, "compaction passes per measured round"},
		{"kv.compact_pause_p50_us", "us", "lower", 0, clockHost, onChurn, "median in-process span of a put that ran a compaction pass"},
		{"kv.compact_pause_max_us", "us", "lower", 0, clockHost, onChurn, "longest such span"},
		{"kv.compact_freed_bytes_per_pass", "B", "higher", 0, clockCount, onChurn, "log bytes freed per pass"},
		{"kv.reclaimed_lines", "count", "lower", 0, clockCount, onChurn, "lines zeroed by reclaim per measured round"},
		{"kv.stall_ms", "ms", "lower", 0, clockHost, onChurn, "writer time stalled behind the ladder per measured round"},
		{"kv.slowdowns", "count", "lower", 0, clockCount, onChurn, "throttled admissions per measured round"},
		{"kv.backpressure_waits", "count", "lower", 0, clockCount, onChurn, "admissions queued behind a running pass per measured round"},
		{"kv.capacity_stops", "count", "lower", 0, clockCount, onChurn, "writes refused for space per measured round"},
		{"kv.readonly_stops", "count", "lower", 0, clockCount, onChurn, "writes refused read-only per measured round"},
		{"kv.open_ms", "ms", "lower", 0, clockHost, onKV, "kv.Open on the rebooted store (log scan, keymap rebuild) and the first verified Get"},

		// store = the internal/store facade.
		{"store.self_us", "us", "lower", 0, clockHost, onKV, "store-level span minus the engine-level span of the same op"},
		{"store.write_us", "us", "lower", 0, clockHost, onWrite, "mean Store.Write call, per line"},
		{"store.flush_us", "us", "lower", 0, clockHost, onWrite, "mean Store.FlushEpoch call"},
		{"store.read_us", "us", "lower", 0, clockHost, onRead, "mean Store.Read call, per line"},
		{"store.refused_writes", "count", "lower", 0, clockCount, onKV, "facade writes refused read-only"},
		{"store.sim_cycles_per_op", "cycles/op", "lower", 0, clockSim, onKV, "Store.Now delta per op with one client: exact, host-speed independent"},
		{"store.reboot_ms", "ms", "lower", 0, clockHost, onAll, "store.Reboot: four-step recovery, Apply, OpenRecovered"},
		{"store.image_load_ms", "ms", "lower", 0, clockHost, onAll, "store.LoadImage of the crash image file"},

		// engine = internal/engine + core + bmt + seccrypto + metacache.
		{"engine.writeback_us", "us", "lower", 0, clockHost, onWrite, "mean Engine.WriteBack call, per line"},
		{"engine.settle_us", "us", "lower", 0, clockHost, onWrite, "mean Engine.Settle call"},
		{"engine.readblock_us", "us", "lower", 0, clockHost, onRead, "mean Engine.ReadBlock call, per line"},
		{"engine.hmac_per_op", "1/op", "lower", 0, clockCount, onAll, "HMAC computations per op"},
		{"engine.aes_per_op", "1/op", "lower", 0, clockCount, onAll, "one-time-pad generations per op"},
		{"engine.drains_per_op", "1/op", "lower", 0, clockCount, onAll, "epoch drains per op, every trigger"},
		{"engine.drain_lines_per_drain", "lines", "lower", 0, clockCount, onAll, "metadata lines flushed per drain"},
		{"engine.drain_queue_full", "count", "lower", 0, clockCount, onAll, "drains triggered by a full dirty-address queue"},
		{"engine.drain_evict", "count", "lower", 0, clockCount, onAll, "drains triggered by a dirty metadata eviction"},
		{"engine.drain_update_limit", "count", "lower", 0, clockCount, onAll, "drains triggered by the update limit N"},
		{"engine.wb_stalls", "count", "lower", 0, clockCount, onAll, "write-backs that found the victim buffer full"},
		{"engine.counter_overflows", "count", "lower", 0, clockCount, onAll, "minor-counter overflows (page re-encryptions)"},
		{"engine.integrity_violations", "count", "lower", 0, clockCount, onAll, "runtime authentication failures; any fails the run"},
		{"engine.memo_hit_ratio", "ratio", "higher", 0, clockCount, onAll, "combined hit ratio of the crypto memo tables"},
		{"engine.pad_hit_ratio", "ratio", "higher", 0, clockCount, onAll, "one-time-pad cache hit ratio"},
		{"engine.data_hit_ratio", "ratio", "higher", 0, clockCount, onAll, "data-HMAC memo hit ratio"},
		{"engine.node_hit_ratio", "ratio", "higher", 0, clockCount, onAll, "node-HMAC memo hit ratio"},

		// nvm = internal/nvm + memctrl: device and WPQ counters.
		{"nvm.writes_data_per_op", "lines/op", "lower", 0, clockCount, onAll, "data-region line writes per op"},
		{"nvm.writes_hmac_per_op", "lines/op", "lower", 0, clockCount, onAll, "HMAC-region line writes per op"},
		{"nvm.writes_counter_per_op", "lines/op", "lower", 0, clockCount, onAll, "counter-region line writes per op"},
		{"nvm.writes_tree_per_op", "lines/op", "lower", 0, clockCount, onAll, "tree-region line writes per op"},
		{"nvm.reads_per_op", "lines/op", "lower", 0, clockCount, onAll, "line reads per op: the outside view of metadata-cache misses"},
		{"nvm.max_wear", "count", "lower", 0, clockCount, onAll, "writes to the hottest line"},
		{"nvm.wpq_full_stalls", "count", "lower", 0, clockCount, onAll, "writes that found the WPQ full"},
		{"nvm.epoch_writes_per_op", "lines/op", "lower", 0, clockCount, onAll, "lines written inside atomic-draining windows per op"},
	}
	// sim = internal/sim + cache + trace, one row set per paper design.
	for _, d := range sim.Designs() {
		ms = append(ms,
			metric{"sim." + d + ".ops_per_s", "1/s", "higher", 0, clockHost, onSim, "simulated memory ops per host second, " + d},
			metric{"sim." + d + ".ipc_norm", "ratio", "higher", 0, clockSim, onSim, "geo-mean IPC normalised to the baseline design, " + d},
			metric{"sim." + d + ".write_norm", "ratio", "lower", 0, clockSim, onSim, "geo-mean NVM writes normalised to the baseline design, " + d},
		)
	}
	return append(ms,
		metric{"sim.meta_hit_ratio", "ratio", "higher", 0, clockSim, onSim, "metadata-cache hit ratio over the cc-NVM cells"},
		metric{"sim.allocs_per_op", "1/op", "lower", 0, clockCount, onSim, "heap allocations per simulated op"},
		metric{"sim.paper_err_pp", "pp", "lower", 0, clockSim, onSim, "mean absolute error of the six headline claims against the paper"},

		// The harness's own behaviour.
		metric{"load.contention_us", "us", "lower", 0, clockHost, onKV, "closed-loop mean latency at 2 connections minus at 1: waiting on locks, flushes, scheduler"},
		metric{"load.utilization", "ratio", "lower", 0, clockHost, onKV, "offered rate over closed-loop capacity at 2 connections; 1 for a closed loop"},
		metric{"load.lat_tail_us", "us", "lower", 0, clockHost, onKV, "p99 latency of the workload's own load shape (the highest percentile with ten samples beyond it)"},
		metric{"load.fail_share", "ratio", "lower", 0, clockCount, onAll, "failed, refused, mis-verified or timed-out ops over attempted"},
		metric{"gen.late_share", "ratio", "lower", 0, clockHost, onChurn, "open-loop requests sent more than 1 ms after they were due"},
		metric{"gen.late_p99_us", "us", "lower", 0, clockHost, onChurn, "p99 of how late the open-loop generator sent"},
		metric{"trace.overhead_pct", "%", "lower", 0, clockHost, onAll, "ops_per_s lost with span recording on, single client"},
		metric{"trace.sum_err_pct", "%", "lower", 0, clockHost, onKV, "layer self times summed against the untraced single-client mean latency"},
		metric{"trace.spans", "count", "lower", 0, clockCount, onAll, "spans recorded by the traced pass"},
	)
}

// value is one measured number with its unit, as the result line
// carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// project fills the result line's metric map: every metric of the set,
// the measured value where the workload produced one and 0 where the
// layer did no work on it.
func project(set []metric, got map[string]float64) map[string]value {
	out := make(map[string]value, len(set))
	for _, m := range set {
		out[m.Name] = value{Value: got[m.Name], Unit: m.Unit}
	}
	return out
}
