package gcs

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/types"
)

// The control-plane service. The head node (cmd/raynode -head) and every
// shard service serve it; worker processes talk to the control plane
// exclusively through it, keeping every component except the database
// stateless across process boundaries (Section 3.2.1).
//
// Each unary method is one row: its wire name and what a Store does with
// its request. RegisterService serves the rows, and the Sharded client calls
// them by the same row, so the request and response types of both ends are
// the row's own and the compiler keeps them in step.

// rpc is one unary control-plane method.
type rpc[Req, Resp any] struct {
	name  string
	serve func(*Store, Req) Resp
}

// method is what RegisterService needs of a row.
type method interface {
	register(srv Registrar, store *Store)
}

// register serves the row on srv: decode the request, serve it, encode the
// answer.
func (m rpc[Req, Resp]) register(srv Registrar, store *Store) {
	srv.Handle(m.name, func(payload []byte) ([]byte, error) {
		req, err := codec.DecodeAs[Req](payload)
		if err != nil {
			return nil, err
		}
		return codec.Encode(m.serve(store, req))
	})
}

// ack adapts a Store method with no result to the wire's `true`
// acknowledgement.
func ack[Req any](fn func(*Store, Req)) func(*Store, Req) bool {
	return func(s *Store, req Req) bool { fn(s, req); return true }
}

// StreamSub is every subscription: the payload is the topic byte, then the
// ID (subPayload).
const StreamSub = "gcs.sub"

// Wire request/response shapes (through codec).
type (
	// none is the request of a method that takes nothing.
	none struct{}
	// maybe is the answer of a keyed read: the record, and whether there
	// is one.
	maybe[T any] struct {
		Val T
		OK  bool
	}
	claimTaskReq struct {
		ID    types.TaskID
		From  []types.TaskStatus
		To    types.TaskStatus
		Owner types.NodeID
		// Op is the idempotency token for retried claims (0 = no dedup);
		// see Store.ClaimTaskOp.
		Op uint64
	}
	claimTaskResp struct {
		Seq uint64
		OK  bool
	}
	ensureObjectsReq struct {
		Producers map[types.ObjectID]types.TaskID
	}
	objLocationReq struct {
		ID   types.ObjectID
		Node types.NodeID
		Size int64
	}
	heartbeatReq struct {
		ID    types.NodeID
		Queue int
		Avail types.Resources
		Store types.StoreStats
	}
	modifyRefsReq struct {
		// Node attributes the deltas for the owner-death sweep.
		Node   types.NodeID
		Deltas map[types.ObjectID]int64
		// Op is the batch's idempotency token, recorded per-object; fixed
		// across retries of the same ledger flush (never 0 on this path).
		Op uint64
	}
	markSpilledReq struct {
		ID      types.ObjectID
		Node    types.NodeID
		Spilled bool
	}
	casGroupReq struct {
		ID    types.PlacementGroupID
		From  []types.PlacementGroupState
		To    types.PlacementGroupState
		Nodes []types.NodeID
		// Claim is the claimant token recorded at Placing and required at
		// the Placed commit (0 = no claim bookkeeping); see
		// Store.CASPlacementGroupState.
		Claim uint64
		// Op is the idempotency token for retried gang-state CAS claims
		// (0 = no dedup); see Store.CASPlacementGroupStateOp.
		Op uint64
	}
	casNodeReq struct {
		ID   types.NodeID
		From []types.NodeState
		To   types.NodeState
		// Op is the idempotency token for retried drain-state CAS claims
		// (0 = no dedup); see Store.CASNodeStateOp.
		Op uint64
	}
	casJobReq struct {
		ID   types.JobID
		From []types.JobState
		To   types.JobState
		// Op is the idempotency token for retried job-state CAS claims
		// (0 = no dedup); see Store.CASJobStateOp.
		Op uint64
	}
	publishTelemetryReq struct {
		ID    types.NodeID
		Snap  metrics.Snapshot
		Spans []metrics.SpanRecord
	}
	objectIDsReq struct {
		IDs []types.ObjectID
	}
	taskIDsReq struct {
		IDs []types.TaskID
	}
	purgeTasksResp struct {
		Args []types.ObjectID
		Left []types.TaskID
	}
	// recordFactsReq asks for what Retire reads of the named records;
	// recordFactsResp answers in the order asked.
	recordFactsReq struct {
		Objects []types.ObjectID
		Tasks   []types.TaskID
	}
	recordFactsResp struct {
		Objects []objectFacts
		Tasks   []taskFacts
	}
	watchObjectsReq struct {
		Node types.NodeID
		IDs  []types.ObjectID
	}
	pinObjectsReq struct {
		Deltas map[types.ObjectID]int64
		// Op is the batch's idempotency token, recorded per object.
		Op uint64
	}
)

func maybeOf[T any](v T, ok bool) maybe[T] { return maybe[T]{Val: v, OK: ok} }

// The rows. The batch and scan rows drop the store's failed-set / complete
// results: a local store applies everything it is given and scans its whole
// table, so both are client-side (sharded transport) concepts.
var (
	rpcNow = rpc[none, int64]{"gcs.now", func(s *Store, _ none) int64 { return s.NowNs() }}

	rpcGetTask = rpc[types.TaskID, maybe[types.TaskState]]{"gcs.getTask",
		func(s *Store, id types.TaskID) maybe[types.TaskState] { return maybeOf(s.GetTask(id)) }}
	rpcClaimTask = rpc[claimTaskReq, claimTaskResp]{"gcs.claimTask", func(s *Store, r claimTaskReq) claimTaskResp {
		seq, ok := s.ClaimTaskOp(r.ID, r.From, r.To, r.Owner, r.Op)
		return claimTaskResp{Seq: seq, OK: ok}
	}}
	rpcModifyTaskStates = rpc[types.TaskLedgerBatch, taskIDsReq]{"gcs.modifyTaskStates", func(s *Store, r types.TaskLedgerBatch) taskIDsReq {
		return taskIDsReq{IDs: s.modifyTaskStates(r.Deltas, r.Op)}
	}}
	rpcTasks = rpc[TaskFilter, []types.TaskState]{"gcs.tasks", func(s *Store, f TaskFilter) []types.TaskState {
		tasks, _ := s.ScanTasks(f)
		return tasks
	}}

	rpcEnsureObjects = rpc[ensureObjectsReq, bool]{"gcs.ensureObjects", ack(func(s *Store, r ensureObjectsReq) {
		s.EnsureObjects(r.Producers)
	})}
	rpcAddObjLocation = rpc[objLocationReq, bool]{"gcs.addObjLocation", ack(func(s *Store, r objLocationReq) {
		s.AddObjectLocation(r.ID, r.Node, r.Size)
	})}
	rpcRemoveObjLocation = rpc[objLocationReq, bool]{"gcs.removeObjLocation", ack(func(s *Store, r objLocationReq) {
		s.RemoveObjectLocation(r.ID, r.Node)
	})}
	rpcGetObject = rpc[types.ObjectID, maybe[types.ObjectInfo]]{"gcs.getObject",
		func(s *Store, id types.ObjectID) maybe[types.ObjectInfo] { return maybeOf(s.GetObject(id)) }}
	rpcObjects      = rpc[none, []types.ObjectInfo]{"gcs.objects", func(s *Store, _ none) []types.ObjectInfo { return s.Objects() }}
	rpcWatchObjects = rpc[watchObjectsReq, []ObjectWatch]{"gcs.watchObjects", func(s *Store, r watchObjectsReq) []ObjectWatch {
		return s.WatchObjects(r.Node, r.IDs)
	}}
	rpcModifyObjRefs = rpc[modifyRefsReq, bool]{"gcs.modifyObjRefCounts", ack(func(s *Store, r modifyRefsReq) {
		s.ModifyObjectRefCounts(r.Node, r.Deltas, r.Op)
	})}
	rpcSweepDeadRefs  = rpc[types.NodeID, int]{"gcs.sweepDeadNodeRefs", (*Store).SweepDeadNodeRefs}
	rpcMarkObjSpilled = rpc[markSpilledReq, bool]{"gcs.markObjSpilled", ack(func(s *Store, r markSpilledReq) {
		s.MarkObjectSpilled(r.ID, r.Node, r.Spilled)
	})}
	rpcPublishSpill = rpc[types.TaskSpec, bool]{"gcs.publishSpill", ack((*Store).PublishSpill)}

	rpcCreateGroup = rpc[types.PlacementGroupSpec, bool]{"gcs.createGroup", (*Store).CreatePlacementGroup}
	rpcGetGroup    = rpc[types.PlacementGroupID, maybe[types.PlacementGroupInfo]]{"gcs.getGroup",
		func(s *Store, id types.PlacementGroupID) maybe[types.PlacementGroupInfo] {
			return maybeOf(s.GetPlacementGroup(id))
		}}
	rpcGroups = rpc[none, []types.PlacementGroupInfo]{"gcs.groups",
		func(s *Store, _ none) []types.PlacementGroupInfo { return s.PlacementGroups() }}
	rpcCASGroup = rpc[casGroupReq, bool]{"gcs.casGroup", func(s *Store, r casGroupReq) bool {
		return s.CASPlacementGroupStateOp(r.ID, r.From, r.To, r.Nodes, r.Claim, r.Op)
	}}

	rpcCreateJob = rpc[types.JobSpec, bool]{"gcs.createJob", (*Store).CreateJob}
	rpcGetJob    = rpc[types.JobID, maybe[types.JobInfo]]{"gcs.getJob",
		func(s *Store, id types.JobID) maybe[types.JobInfo] { return maybeOf(s.GetJob(id)) }}
	rpcJobs   = rpc[none, []types.JobInfo]{"gcs.jobs", func(s *Store, _ none) []types.JobInfo { return s.Jobs() }}
	rpcCASJob = rpc[casJobReq, bool]{"gcs.casJob", func(s *Store, r casJobReq) bool {
		return s.CASJobStateOp(r.ID, r.From, r.To, r.Op)
	}}
	rpcForceReleaseObjects = rpc[objectIDsReq, bool]{"gcs.forceReleaseObjects", ack(func(s *Store, r objectIDsReq) {
		s.ForceReleaseObjects(r.IDs)
	})}
	rpcPurgeObjects = rpc[objectIDsReq, objectIDsReq]{"gcs.purgeObjects", func(s *Store, r objectIDsReq) objectIDsReq {
		return objectIDsReq{IDs: s.PurgeObjects(r.IDs)}
	}}
	rpcPurgeTasks = rpc[taskIDsReq, purgeTasksResp]{"gcs.purgeTasks", func(s *Store, r taskIDsReq) purgeTasksResp {
		args, left := s.purgeTasks(r.IDs)
		return purgeTasksResp{Args: args, Left: left}
	}}
	rpcRecordFacts = rpc[recordFactsReq, recordFactsResp]{"gcs.recordFacts", func(s *Store, r recordFactsReq) recordFactsResp {
		return recordFactsResp{Objects: s.objectFacts(r.Objects), Tasks: s.taskFacts(r.Tasks)}
	}}
	rpcPinObjects = rpc[pinObjectsReq, bool]{"gcs.pinObjects", ack(func(s *Store, r pinObjectsReq) {
		s.pinObjects(r.Deltas, r.Op)
	})}

	rpcRegisterNode = rpc[types.NodeInfo, bool]{"gcs.registerNode", ack((*Store).RegisterNode)}
	rpcHeartbeat    = rpc[heartbeatReq, bool]{"gcs.heartbeat", ack(func(s *Store, r heartbeatReq) {
		s.Heartbeat(r.ID, r.Queue, r.Avail, r.Store)
	})}
	rpcMarkNodeDead = rpc[types.NodeID, bool]{"gcs.markNodeDead", ack((*Store).MarkNodeDead)}
	rpcCASNodeState = rpc[casNodeReq, bool]{"gcs.casNodeState", func(s *Store, r casNodeReq) bool {
		return s.CASNodeStateOp(r.ID, r.From, r.To, r.Op)
	}}
	rpcGetNode = rpc[types.NodeID, maybe[types.NodeInfo]]{"gcs.getNode",
		func(s *Store, id types.NodeID) maybe[types.NodeInfo] { return maybeOf(s.GetNode(id)) }}
	rpcNodes = rpc[none, []types.NodeInfo]{"gcs.nodes", func(s *Store, _ none) []types.NodeInfo { return s.Nodes() }}

	rpcLogEvent         = rpc[types.Event, bool]{"gcs.logEvent", ack((*Store).LogEvent)}
	rpcEvents           = rpc[none, []types.Event]{"gcs.events", func(s *Store, _ none) []types.Event { return s.Events() }}
	rpcPublishTelemetry = rpc[publishTelemetryReq, bool]{"gcs.publishTelemetry", ack(func(s *Store, r publishTelemetryReq) {
		s.PublishTelemetry(r.ID, r.Snap, r.Spans)
	})}
	rpcTelemetry = rpc[none, []TelemetrySnapshot]{"gcs.telemetry", func(s *Store, _ none) []TelemetrySnapshot { return s.Telemetry() }}
	rpcSpans     = rpc[none, []metrics.SpanRecord]{"gcs.spans", func(s *Store, _ none) []metrics.SpanRecord { return s.Spans() }}
)

// methods is every row RegisterService serves.
var methods = []method{
	rpcNow,
	rpcGetTask, rpcClaimTask, rpcModifyTaskStates, rpcTasks,
	rpcEnsureObjects, rpcAddObjLocation, rpcRemoveObjLocation, rpcGetObject, rpcObjects, rpcWatchObjects, rpcModifyObjRefs,
	rpcSweepDeadRefs, rpcMarkObjSpilled, rpcPublishSpill,
	rpcCreateGroup, rpcGetGroup, rpcGroups, rpcCASGroup,
	rpcCreateJob, rpcGetJob, rpcJobs, rpcCASJob,
	rpcForceReleaseObjects, rpcPurgeObjects, rpcPurgeTasks, rpcRecordFacts, rpcPinObjects,
	rpcRegisterNode, rpcHeartbeat, rpcMarkNodeDead, rpcCASNodeState, rpcGetNode, rpcNodes,
	rpcLogEvent, rpcEvents, rpcPublishTelemetry, rpcTelemetry, rpcSpans,
}

// Registrar is the method-registration surface RegisterService needs.
// *transport.Server satisfies it directly; a GCS shard service passes a
// wrapper that gates every handler behind its kill switch so a "crashed"
// shard stops answering even clients holding live connections.
type Registrar interface {
	Handle(method string, h transport.Handler)
	HandleStream(method string, h transport.StreamHandler)
}

// handle0 registers a unary method that takes no request: the shard-map
// pair, which answers from the service rather than from a Store.
func handle0[Resp any](srv Registrar, method string, fn func() Resp) {
	srv.Handle(method, func([]byte) ([]byte, error) { return codec.Encode(fn()) })
}

// RegisterService exposes a local Store over a transport server: every row,
// and the subscription stream.
func RegisterService(srv Registrar, store *Store) {
	for _, m := range methods {
		m.register(srv, store)
	}

	// Streaming subscriptions: forward the local subscription's messages
	// until the client disconnects. The first message is an empty ack sent
	// after the local subscription exists, so a client that has seen the
	// ack knows no later publish can be missed (the client's attach blocks
	// on it). replay goes out between the ack and the live feed.
	forward := func(sub Sub, stream transport.ServerStream, replay ...[]byte) error {
		defer sub.Close()
		if err := stream.Send(nil); err != nil {
			return nil // client gone
		}
		for _, msg := range replay {
			if err := stream.Send(msg); err != nil {
				return nil
			}
		}
		for {
			select {
			case msg, ok := <-sub.C():
				if !ok {
					return nil
				}
				if err := stream.Send(msg); err != nil {
					return nil
				}
			case <-stream.Done():
				return nil
			}
		}
	}
	srv.HandleStream(StreamSub, func(payload []byte, stream transport.ServerStream) error {
		if len(payload) != 1+types.IDSize || Topic(payload[0]) > TopicJobs {
			return fmt.Errorf("gcs: bad subscription %x", payload)
		}
		topic := Topic(payload[0])
		sub := store.Subscribe(topic, [types.IDSize]byte(payload[1:]))
		var replay [][]byte
		if topic == TopicObjectGC {
			// Subscribed first (so nothing published after this point is
			// lost), then the currently GC-eligible set goes out before the
			// live feed: a subscriber (re)attaching after a shard crash
			// learns of zero-refcount transitions whose publish died with
			// the old incarnation. Reclaim is idempotent, so overlap is
			// harmless.
			for _, id := range store.GCEligibleObjects() {
				replay = append(replay, id[:])
			}
		}
		return forward(sub, stream, replay...)
	})
}

// subPayload is a StreamSub request: the topic byte, then the ID.
func subPayload(topic Topic, id [types.IDSize]byte) []byte {
	return append([]byte{byte(topic)}, id[:]...)
}

// RegisterSingleShard exposes an in-memory Store at addr as a complete
// one-shard control plane: the service plus a static one-entry shard map
// and the shard identity check, so the Sharded client that routes over N
// supervised shards attaches to it unchanged. addr is what clients dial,
// so it must be reachable from their side.
func RegisterSingleShard(srv Registrar, store *Store, addr string) {
	RegisterService(srv, store)
	self := ShardInfo{Index: 0, Addr: addr, Incarnation: 1, Alive: true}
	handle0(srv, MethodShardMap, func() ShardMap { return ShardMap{Version: 1, Shards: []ShardInfo{self}} })
	handle0(srv, MethodShardInfo, func() ShardInfo { return self })
}
