package gcs

import (
	"io"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/types"
)

// Remote implements API over a transport connection to a control-plane
// service (RegisterService). Worker processes in multi-process clusters use
// it; the interface is identical to the in-process Store, so every other
// component is oblivious to the deployment mode.
type Remote struct {
	client transport.Client
	// reg, when set, records per-method RPC latency histograms
	// ("gcs.rpc.ns;method=..."). Nil disables with one branch.
	reg *metrics.Registry
}

// NewRemote wraps a connected transport client.
func NewRemote(client transport.Client) *Remote { return &Remote{client: client} }

// SetMetrics attaches a registry; every subsequent RPC records a
// per-method latency histogram. Call before sharing the client.
func (r *Remote) SetMetrics(reg *metrics.Registry) { r.reg = reg }

// call performs one unary RPC, decoding the response into R. Errors are
// swallowed into zero values for read paths (a dead control plane looks
// like an empty one; components keep polling), matching the in-process
// Store's forgiving semantics.
func call[R any](r *Remote, method string, req any) (R, bool) {
	var zero R
	payload, err := codec.Encode(req)
	if err != nil {
		return zero, false
	}
	start := time.Now()
	resp, err := r.client.Call(method, payload)
	if r.reg != nil {
		r.reg.Histogram("gcs.rpc.ns;method=" + method).Observe(time.Since(start).Nanoseconds())
		if err != nil {
			r.reg.Counter("gcs.rpc.errors;method=" + method).Inc()
		}
	}
	if err != nil {
		return zero, false
	}
	out, err := codec.DecodeAs[R](resp)
	if err != nil {
		return zero, false
	}
	return out, true
}

// NowNs implements API.
func (r *Remote) NowNs() int64 {
	v, _ := call[int64](r, MethodNowNs, nil)
	return v
}

// Ping implements Pinger: a round trip to the service proves liveness.
func (r *Remote) Ping() bool {
	_, ok := call[int64](r, MethodNowNs, nil)
	return ok
}

// AddTask implements API.
func (r *Remote) AddTask(state types.TaskState) bool {
	v, _ := call[bool](r, MethodAddTask, state)
	return v
}

// GetTask implements API.
func (r *Remote) GetTask(id types.TaskID) (types.TaskState, bool) {
	v, ok := call[maybeTask](r, MethodGetTask, id)
	return v.State, ok && v.OK
}

// CASTaskStatus implements API.
func (r *Remote) CASTaskStatus(id types.TaskID, from []types.TaskStatus, to types.TaskStatus) bool {
	v, _ := call[bool](r, MethodCASTaskStatus, casStatusReq{ID: id, From: from, To: to})
	return v
}

// ClaimTask implements API.
func (r *Remote) ClaimTask(id types.TaskID, from []types.TaskStatus, to types.TaskStatus, owner types.NodeID) (uint64, bool) {
	v, ok := call[claimTaskResp](r, MethodClaimTask, claimTaskReq{ID: id, From: from, To: to, Owner: owner})
	return v.Seq, ok && v.OK
}

// ModifyTaskStates implements API: the single-head control plane takes the
// whole batch in one RPC, mirroring ModifyObjectRefCounts — on transport
// failure every delta is reported failed so the ledger requeues the batch
// under the same token.
func (r *Remote) ModifyTaskStates(node types.NodeID, deltas []types.TaskStateDelta, op uint64) []types.TaskID {
	if len(deltas) == 0 {
		return nil
	}
	if _, ok := call[bool](r, MethodModifyTaskStates, types.TaskLedgerBatch{Node: node, Deltas: deltas, Op: op}); !ok {
		failed := make([]types.TaskID, 0, len(deltas))
		for _, d := range deltas {
			failed = append(failed, d.ID)
		}
		return failed
	}
	return nil
}

// LiveTasksOwnedBy implements API.
func (r *Remote) LiveTasksOwnedBy(owner types.NodeID) ([]types.TaskState, bool) {
	v, ok := call[[]types.TaskState](r, MethodLiveTasksOwned, owner)
	return v, ok
}

// Tasks implements API.
func (r *Remote) Tasks() []types.TaskState {
	v, _ := call[[]types.TaskState](r, MethodTasks, nil)
	return v
}

// StalePendingTasks implements API.
func (r *Remote) StalePendingTasks(olderThanNs int64) []types.TaskSpec {
	v, _ := call[[]types.TaskSpec](r, MethodStalePending, olderThanNs)
	return v
}

// EnsureObject implements API.
func (r *Remote) EnsureObject(id types.ObjectID, producer types.TaskID) {
	call[bool](r, MethodEnsureObject, ensureObjectReq{ID: id, Producer: producer})
}

// EnsureObjects implements API: one RPC for the whole batch; on transport
// failure every ID is reported failed so the ledger requeues them.
func (r *Remote) EnsureObjects(producers map[types.ObjectID]types.TaskID) []types.ObjectID {
	if len(producers) == 0 {
		return nil
	}
	if _, ok := call[bool](r, MethodEnsureObjects, ensureObjectsReq{Producers: producers}); !ok {
		failed := make([]types.ObjectID, 0, len(producers))
		for id := range producers {
			failed = append(failed, id)
		}
		return failed
	}
	return nil
}

// AddObjectLocation implements API.
func (r *Remote) AddObjectLocation(id types.ObjectID, node types.NodeID, size int64) {
	call[bool](r, MethodAddObjLocation, objLocationReq{ID: id, Node: node, Size: size})
}

// RemoveObjectLocation implements API.
func (r *Remote) RemoveObjectLocation(id types.ObjectID, node types.NodeID) {
	call[bool](r, MethodRemoveObjLoc, objLocationReq{ID: id, Node: node})
}

// GetObject implements API.
func (r *Remote) GetObject(id types.ObjectID) (types.ObjectInfo, bool) {
	v, ok := call[maybeObject](r, MethodGetObject, id)
	return v.Info, ok && v.OK
}

// Objects implements API.
func (r *Remote) Objects() []types.ObjectInfo {
	v, _ := call[[]types.ObjectInfo](r, MethodObjects, nil)
	return v
}

// ModifyObjectRefCount implements API.
func (r *Remote) ModifyObjectRefCount(id types.ObjectID, delta int64) int64 {
	v, _ := call[int64](r, MethodModifyObjRef, modifyRefReq{ID: id, Delta: delta})
	return v
}

// ModifyObjectRefCounts implements API: the single-head control plane
// takes the whole batch in one RPC. The token still rides along — the
// head's RefOps rings make an at-least-once redelivery (e.g. a client-side
// retry layered above Remote) harmless.
func (r *Remote) ModifyObjectRefCounts(node types.NodeID, deltas map[types.ObjectID]int64, op uint64) []types.ObjectID {
	if len(deltas) == 0 {
		return nil
	}
	if _, ok := call[bool](r, MethodModifyObjRefs, modifyRefsReq{Node: node, Deltas: deltas, Op: op}); !ok {
		failed := make([]types.ObjectID, 0, len(deltas))
		for id := range deltas {
			failed = append(failed, id)
		}
		return failed
	}
	return nil
}

// SweepDeadNodeRefs implements API.
func (r *Remote) SweepDeadNodeRefs(node types.NodeID) int {
	v, ok := call[int](r, MethodSweepDeadRefs, sweepRefsReq{Node: node})
	if !ok {
		return -1
	}
	return v
}

// MarkObjectSpilled implements API.
func (r *Remote) MarkObjectSpilled(id types.ObjectID, node types.NodeID, spilled bool) {
	call[bool](r, MethodMarkObjSpilled, markSpilledReq{ID: id, Node: node, Spilled: spilled})
}

// CreatePlacementGroup implements API.
func (r *Remote) CreatePlacementGroup(spec types.PlacementGroupSpec) bool {
	v, _ := call[bool](r, MethodCreateGroup, spec)
	return v
}

// RemovePlacementGroup implements API.
func (r *Remote) RemovePlacementGroup(id types.PlacementGroupID) bool {
	v, _ := call[bool](r, MethodRemoveGroup, id)
	return v
}

// GetPlacementGroup implements API.
func (r *Remote) GetPlacementGroup(id types.PlacementGroupID) (types.PlacementGroupInfo, bool) {
	v, ok := call[maybeGroup](r, MethodGetGroup, id)
	return v.Info, ok && v.OK
}

// PlacementGroups implements API.
func (r *Remote) PlacementGroups() []types.PlacementGroupInfo {
	v, _ := call[[]types.PlacementGroupInfo](r, MethodGroups, nil)
	return v
}

// CASPlacementGroupState implements API.
func (r *Remote) CASPlacementGroupState(id types.PlacementGroupID, from []types.PlacementGroupState, to types.PlacementGroupState, bundleNodes []types.NodeID) bool {
	v, _ := call[bool](r, MethodCASGroup, casGroupReq{ID: id, From: from, To: to, Nodes: bundleNodes})
	return v
}

// CASPlacementGroupStateClaim implements API.
func (r *Remote) CASPlacementGroupStateClaim(id types.PlacementGroupID, from []types.PlacementGroupState, to types.PlacementGroupState, bundleNodes []types.NodeID, claim uint64) bool {
	v, _ := call[bool](r, MethodCASGroup, casGroupReq{ID: id, From: from, To: to, Nodes: bundleNodes, Claim: claim})
	return v
}

// CreateJob implements API.
func (r *Remote) CreateJob(spec types.JobSpec) bool {
	v, _ := call[bool](r, MethodCreateJob, spec)
	return v
}

// GetJob implements API.
func (r *Remote) GetJob(id types.JobID) (types.JobInfo, bool) {
	v, ok := call[maybeJob](r, MethodGetJob, id)
	return v.Info, ok && v.OK
}

// Jobs implements API.
func (r *Remote) Jobs() []types.JobInfo {
	v, _ := call[[]types.JobInfo](r, MethodJobs, nil)
	return v
}

// CASJobState implements API.
func (r *Remote) CASJobState(id types.JobID, from []types.JobState, to types.JobState) bool {
	v, _ := call[bool](r, MethodCASJob, casJobReq{ID: id, From: from, To: to})
	return v
}

// MarkJobPurged implements API.
func (r *Remote) MarkJobPurged(id types.JobID) bool {
	v, _ := call[bool](r, MethodMarkJobPurged, id)
	return v
}

// JobTasks implements API.
func (r *Remote) JobTasks(job types.JobID) ([]types.TaskState, bool) {
	v, ok := call[[]types.TaskState](r, MethodJobTasks, job)
	return v, ok
}

// ForceReleaseObjects implements API: one RPC for the whole batch; on
// transport failure every ID is reported failed so the reclaim pass
// retries them.
func (r *Remote) ForceReleaseObjects(ids []types.ObjectID) []types.ObjectID {
	if len(ids) == 0 {
		return nil
	}
	if _, ok := call[bool](r, MethodForceReleaseObjs, objectIDsReq{IDs: ids}); !ok {
		return append([]types.ObjectID(nil), ids...)
	}
	return nil
}

// PurgeObjects implements API: on transport failure every ID is reported
// still-remaining so the reclaim pass retries the batch.
func (r *Remote) PurgeObjects(ids []types.ObjectID) []types.ObjectID {
	if len(ids) == 0 {
		return nil
	}
	v, ok := call[objectIDsReq](r, MethodPurgeObjects, objectIDsReq{IDs: ids})
	if !ok {
		return append([]types.ObjectID(nil), ids...)
	}
	return v.IDs
}

// PurgeJobTasks implements API.
func (r *Remote) PurgeJobTasks(job types.JobID) (int, bool) {
	v, ok := call[int](r, MethodPurgeJobTasks, job)
	return v, ok
}

// PublishSpill implements API.
func (r *Remote) PublishSpill(spec types.TaskSpec) {
	call[bool](r, MethodPublishSpill, spec)
}

// RegisterNode implements API.
func (r *Remote) RegisterNode(info types.NodeInfo) {
	call[bool](r, MethodRegisterNode, info)
}

// Heartbeat implements API.
func (r *Remote) Heartbeat(id types.NodeID, queueLen int, avail types.Resources, store types.StoreStats) {
	call[bool](r, MethodHeartbeat, heartbeatReq{ID: id, Queue: queueLen, Avail: avail, Store: store})
}

// MarkNodeDead implements API.
func (r *Remote) MarkNodeDead(id types.NodeID) {
	call[bool](r, MethodMarkNodeDead, id)
}

// CASNodeState implements API.
func (r *Remote) CASNodeState(id types.NodeID, from []types.NodeState, to types.NodeState) bool {
	v, _ := call[bool](r, MethodCASNodeState, casNodeReq{ID: id, From: from, To: to})
	return v
}

// GetNode implements API.
func (r *Remote) GetNode(id types.NodeID) (types.NodeInfo, bool) {
	v, ok := call[maybeNode](r, MethodGetNode, id)
	return v.Info, ok && v.OK
}

// Nodes implements API.
func (r *Remote) Nodes() []types.NodeInfo {
	v, _ := call[[]types.NodeInfo](r, MethodNodes, nil)
	return v
}

// RegisterFunction implements API.
func (r *Remote) RegisterFunction(info FunctionInfo) {
	call[bool](r, MethodRegisterFunction, info)
}

// HasFunction implements API.
func (r *Remote) HasFunction(name string) bool {
	v, _ := call[bool](r, MethodHasFunction, name)
	return v
}

// Functions implements API.
func (r *Remote) Functions() []FunctionInfo {
	v, _ := call[[]FunctionInfo](r, MethodFunctions, nil)
	return v
}

// LogEvent implements API.
func (r *Remote) LogEvent(ev types.Event) {
	call[bool](r, MethodLogEvent, ev)
}

// Events implements API.
func (r *Remote) Events() []types.Event {
	v, _ := call[[]types.Event](r, MethodEvents, nil)
	return v
}

// PublishTelemetry implements TelemetrySink.
func (r *Remote) PublishTelemetry(id types.NodeID, snap metrics.Snapshot, spans []metrics.SpanRecord) {
	call[bool](r, MethodPublishTelemetry, publishTelemetryReq{ID: id, Snap: snap, Spans: spans})
}

// Telemetry implements TelemetrySink.
func (r *Remote) Telemetry() []TelemetrySnapshot {
	v, _ := call[[]TelemetrySnapshot](r, MethodTelemetry, nil)
	return v
}

// Spans implements TelemetrySink.
func (r *Remote) Spans() []metrics.SpanRecord {
	v, _ := call[[]metrics.SpanRecord](r, MethodSpans, nil)
	return v
}

// remoteSub adapts a transport stream to the Sub interface.
type remoteSub struct {
	stream transport.Stream
	ch     chan []byte
	once   sync.Once
	stop   chan struct{}
}

func newRemoteSub(stream transport.Stream) *remoteSub {
	s := &remoteSub{stream: stream, ch: make(chan []byte, 64), stop: make(chan struct{})}
	go s.pump()
	return s
}

func (s *remoteSub) pump() {
	defer close(s.ch)
	for {
		msg, err := s.stream.Recv()
		if err != nil {
			return // io.EOF or transport failure: subscription over
		}
		select {
		case s.ch <- msg:
		case <-s.stop:
			return
		}
	}
}

// C implements Sub.
func (s *remoteSub) C() <-chan []byte { return s.ch }

// Close implements Sub.
func (s *remoteSub) Close() {
	s.once.Do(func() {
		close(s.stop)
		s.stream.Close()
	})
}

var _ = io.EOF // documents pump's termination condition

func (r *Remote) subscribe(method string, payload []byte) Sub {
	stream, err := r.client.OpenStream(method, payload)
	if err != nil {
		// A dead control plane yields an immediately-closed subscription;
		// callers' poll fallbacks take over.
		ch := make(chan []byte)
		close(ch)
		return closedSub{ch: ch}
	}
	// Wait for the service's subscription-established ack so that no
	// publish after this call returns can be missed (see RegisterService).
	if _, err := stream.Recv(); err != nil {
		stream.Close()
		ch := make(chan []byte)
		close(ch)
		return closedSub{ch: ch}
	}
	return newRemoteSub(stream)
}

type closedSub struct{ ch chan []byte }

func (c closedSub) C() <-chan []byte { return c.ch }
func (c closedSub) Close()           {}

// SubscribeTaskStatus implements API.
func (r *Remote) SubscribeTaskStatus(id types.TaskID) Sub {
	return r.subscribe(StreamTaskStatus, []byte(id.Hex()))
}

// SubscribeObjectReady implements API.
func (r *Remote) SubscribeObjectReady(id types.ObjectID) Sub {
	return r.subscribe(StreamObjReady, []byte(id.Hex()))
}

// SubscribeSpill implements API.
func (r *Remote) SubscribeSpill() Sub { return r.subscribe(StreamSpill, nil) }

// SubscribeNodeEvents implements API.
func (r *Remote) SubscribeNodeEvents() Sub { return r.subscribe(StreamNodes, nil) }

// SubscribeObjectGC implements API.
func (r *Remote) SubscribeObjectGC() Sub { return r.subscribe(StreamObjGC, nil) }

// SubscribePlacementGroups implements API.
func (r *Remote) SubscribePlacementGroups() Sub { return r.subscribe(StreamGroups, nil) }

// SubscribeJobs implements API.
func (r *Remote) SubscribeJobs() Sub { return r.subscribe(StreamJobs, nil) }

var _ API = (*Remote)(nil)
