package main

import (
	"maps"
	"slices"
	"strings"
)

// Per-layer figures from /v1/metrics deltas. The daemons time their
// layers themselves (HTTP handler, Monitor.Apply stages, WAL, suggester);
// the benchmark scrapes before and after the traced phase and divides.

const us = 1e6 // seconds → microseconds

// pathLabel is the label set of a per-endpoint HTTP series.
func pathLabel(path string) string { return `{path="` + path + `"}` }

// sumSeries adds every series of a family, whatever its labels.
func sumSeries(m metrics, name string) float64 {
	var s float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// pooled merges several nodes' scrapes into one: the same series on
// different nodes are summed, so histogram means pool observations.
func pooled(ms ...metrics) metrics {
	out := make(metrics)
	for _, m := range ms {
		for k, v := range m {
			out[k] += v
		}
	}
	return out
}

// applyStages sets the incremental.* and wal.* layer metrics of the
// nodes' apply path: the stages that, with the handler's own time, make
// up a write's server time.
func applyStages(res *result, before, after metrics) {
	apply, batches := histMean(before, after, "cfd_apply_seconds", "")
	validate, _ := histMean(before, after, "cfd_apply_validate_seconds", "")
	walStage, walN := histMean(before, after, "cfd_apply_wal_append_seconds", "")
	shard, _ := histMean(before, after, "cfd_apply_shard_seconds", "")
	if batches > 0 {
		// The WAL stage runs for every durable batch; pro-rate when it
		// did not (in-memory nodes record none).
		walStage *= walN / batches
	}
	ops := sumSeries(after, "cfd_apply_ops_total") - sumSeries(before, "cfd_apply_ops_total")
	res.layers["incremental.apply_us"] = apply * us
	res.layers["incremental.validate_us"] = validate * us
	res.layers["incremental.wal_stage_us"] = walStage * us
	res.layers["incremental.shard_apply_us"] = shard * us
	res.layers["incremental.journal_wait_us"] = (apply - validate - walStage - shard) * us

	walAppend, _ := histMean(before, after, "cfd_wal_append_seconds", "")
	fsync, fsyncs := histMean(before, after, "cfd_wal_fsync_seconds", "")
	res.layers["wal.append_us"] = walAppend * us
	res.layers["wal.fsync_us"] = fsync * us
	if ops > 0 {
		res.layers["wal.fsyncs_per_op"] = fsyncs / ops
		res.layers["wal.bytes_per_op"] = delta(before, after, "cfd_wal_append_bytes_total") / ops
	}
	snapMean, snaps := histMean(before, after, "cfd_wal_snapshot_seconds", "")
	res.layers["wal.snapshots"] = delta(before, after, "cfd_wal_snapshots_total")
	res.layers["wal.snapshot_ms"] = snapMean * 1e3
	res.printf("apply path: %.0f batches, %.0f ops, %.0f fsyncs, %.0f snapshots (%.0f timed)", batches, ops, fsyncs, res.layers["wal.snapshots"], snaps)
}

// budget prints a latency decomposition whose rows add up to total:
// the last row is whatever the named layers do not cover.
func budget(res *result, title string, total float64, rows [][2]any) {
	res.printf("%s: client p50 %.1f us =", title, total)
	sum := 0.0
	for _, r := range rows {
		v := r[1].(float64)
		sum += v
		res.printf("  %-34s %9.1f us", r[0].(string), v)
	}
	res.printf("  %-34s %9.1f us", "client.unaccounted (remainder)", total-sum)
}

// ingestLayers fills the server-side layer metrics of ingest-durable.
func ingestLayers(res *result, before, after metrics, s summary) {
	handler, _ := histMean(before, after, "cfdserve_http_request_seconds", pathLabel("/v1/apply"))
	res.layers["cfdserve.apply_handler_us"] = handler * us
	applyStages(res, before, after)
	p50 := s.p50 * 1e3
	res.layers["client.unaccounted_us"] = p50 - handler*us
	l := res.layers
	budget(res, "write path (means per request)", p50, [][2]any{
		{"cfdserve handler (decode, encode)", l["cfdserve.apply_handler_us"] - l["incremental.apply_us"]},
		{"incremental.validate", l["incremental.validate_us"]},
		{"incremental.journal_wait", l["incremental.journal_wait_us"]},
		{"wal stage: append", l["wal.append_us"] * l["wal.fsyncs_per_op"]},
		{"wal stage: fsync", l["wal.fsync_us"] * l["wal.fsyncs_per_op"]},
		{"wal stage: other", l["incremental.wal_stage_us"] - (l["wal.append_us"]+l["wal.fsync_us"])*l["wal.fsyncs_per_op"]},
		{"incremental.shard_apply", l["incremental.shard_apply_us"]},
	})
}

// printLayers lists every per-layer metric the run set.
func printLayers(res *result) {
	for _, d := range perLayer {
		res.printf("%s %.4f %s", d.name, res.layers[d.name], d.unit)
	}
}

// printSpans lists the traced spans by name: count, mean duration and
// mean self time.
func printSpans(res *result) {
	stats := selfTimes(res.tr.snapshot())
	res.printf("spans: name, count, mean us, mean self us")
	for _, name := range slices.Sorted(maps.Keys(stats)) {
		st := stats[name]
		res.printf("  %-34s %7d %11.1f %11.1f", name, st.Count, st.meanUs(), st.meanSelfUs())
	}
}
