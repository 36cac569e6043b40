package gcs

import (
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/types"
)

// maxStoredSpans bounds the control plane's span ring per Store (so per
// shard in a sharded deployment). Profiling wants recent history, not an
// unbounded archive; overflow drops oldest.
const maxStoredSpans = 32768

// telemetry is the Store's in-memory observability state. It is
// deliberately NOT written to the kv database: snapshots are re-published
// on every heartbeat and spans are a bounded profiling buffer, so durably
// logging either would bloat the WAL with data that is stale the moment a
// shard recovers (DESIGN.md §11).
type telemetry struct {
	mu    sync.Mutex
	nodes map[types.NodeID]TelemetrySnapshot
	spans []metrics.SpanRecord // ring
	start int
	n     int
}

func (t *telemetry) publish(id types.NodeID, atNs int64, snap metrics.Snapshot, spans []metrics.SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nodes == nil {
		t.nodes = make(map[types.NodeID]TelemetrySnapshot)
	}
	t.nodes[id] = TelemetrySnapshot{Node: id, AtNs: atNs, Snap: snap}
	if t.spans == nil {
		t.spans = make([]metrics.SpanRecord, maxStoredSpans)
	}
	for _, sp := range spans {
		if t.n == len(t.spans) {
			t.spans[t.start] = sp
			t.start = (t.start + 1) % len(t.spans)
		} else {
			t.spans[(t.start+t.n)%len(t.spans)] = sp
			t.n++
		}
	}
}

func (t *telemetry) snapshots() []TelemetrySnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TelemetrySnapshot, 0, len(t.nodes))
	for _, s := range t.nodes {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node.String() < out[j].Node.String() })
	return out
}

// all returns the stored spans, oldest first, with their IDs in hex: the
// nodes ship raw IDs, and only a reader pays for formatting them.
func (t *telemetry) all() []metrics.SpanRecord {
	t.mu.Lock()
	out := make([]metrics.SpanRecord, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.spans[(t.start+i)%len(t.spans)]
	}
	t.mu.Unlock()
	for i := range out {
		out[i].FormatIDs()
	}
	return out
}

// PublishTelemetry implements TelemetrySink.
func (s *Store) PublishTelemetry(id types.NodeID, snap metrics.Snapshot, spans []metrics.SpanRecord) {
	s.telemetry.publish(id, s.NowNs(), snap, spans)
}

// Telemetry implements TelemetrySink.
func (s *Store) Telemetry() []TelemetrySnapshot { return s.telemetry.snapshots() }

// Spans implements TelemetrySink: the stored spans, their IDs in hex.
func (s *Store) Spans() []metrics.SpanRecord { return s.telemetry.all() }

// ExportRecords publishes the control plane's live record counts — the
// size the tables are now, which record lifetime (DESIGN.md §17) keeps near
// the live set — as gauges in reg, the registry of whichever node's
// telemetry the hosting process ships. records is Store.Records or
// Supervisor.Records.
func ExportRecords(reg *metrics.Registry, records func() (tasks, objects int64)) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("gcs.records.tasks", func() int64 { t, _ := records(); return t })
	reg.GaugeFunc("gcs.records.objects", func() int64 { _, o := records(); return o })
}
