package gcs

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/types"
)

// Transport method names for the control-plane service. The head node
// (cmd/raynode -head) serves these; worker processes talk to the control
// plane exclusively through them, keeping every component except the
// database stateless across process boundaries (Section 3.2.1).
const (
	MethodNowNs            = "gcs.now"
	MethodAddTask          = "gcs.addTask"
	MethodGetTask          = "gcs.getTask"
	MethodCASTaskStatus    = "gcs.casTaskStatus"
	MethodClaimTask        = "gcs.claimTask"
	MethodModifyTaskStates = "gcs.modifyTaskStates"
	MethodLiveTasksOwned   = "gcs.liveTasksOwnedBy"
	MethodTasks            = "gcs.tasks"
	MethodStalePending     = "gcs.stalePendingTasks"
	MethodEnsureObjects    = "gcs.ensureObjects"
	MethodAddObjLocation   = "gcs.addObjLocation"
	MethodRemoveObjLoc     = "gcs.removeObjLocation"
	MethodGetObject        = "gcs.getObject"
	MethodObjects          = "gcs.objects"
	MethodModifyObjRefs    = "gcs.modifyObjRefCounts"
	MethodSweepDeadRefs    = "gcs.sweepDeadNodeRefs"
	MethodMarkObjSpilled   = "gcs.markObjSpilled"
	MethodPublishSpill     = "gcs.publishSpill"
	MethodCreateGroup      = "gcs.createGroup"
	MethodRemoveGroup      = "gcs.removeGroup"
	MethodGetGroup         = "gcs.getGroup"
	MethodGroups           = "gcs.groups"
	MethodCASGroup         = "gcs.casGroup"
	MethodCreateJob        = "gcs.createJob"
	MethodGetJob           = "gcs.getJob"
	MethodJobs             = "gcs.jobs"
	MethodCASJob           = "gcs.casJob"
	MethodMarkJobPurged    = "gcs.markJobPurged"
	MethodJobTasks         = "gcs.jobTasks"
	MethodForceReleaseObjs = "gcs.forceReleaseObjects"
	MethodPurgeObjects     = "gcs.purgeObjects"
	MethodPurgeTasks       = "gcs.purgeTasks"
	MethodPinObjects       = "gcs.pinObjects"
	MethodRecordFacts      = "gcs.recordFacts"
	MethodRegisterNode     = "gcs.registerNode"
	MethodHeartbeat        = "gcs.heartbeat"
	MethodMarkNodeDead     = "gcs.markNodeDead"
	MethodCASNodeState     = "gcs.casNodeState"
	MethodGetNode          = "gcs.getNode"
	MethodNodes            = "gcs.nodes"
	MethodLogEvent         = "gcs.logEvent"
	MethodEvents           = "gcs.events"
	MethodPublishTelemetry = "gcs.publishTelemetry"
	MethodTelemetry        = "gcs.telemetry"
	MethodSpans            = "gcs.spans"

	// StreamSub is every subscription: the payload is the topic byte, then
	// the ID (subPayload).
	StreamSub = "gcs.sub"
)

// Wire request/response shapes (gob via codec).
type (
	casStatusReq struct {
		ID   types.TaskID
		From []types.TaskStatus
		To   types.TaskStatus
		// Op is the idempotency token for retried CAS claims (0 = no
		// dedup); see Store.CASTaskStatusOp.
		Op uint64
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
	sweepRefsReq struct {
		Node types.NodeID
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
	publishTelemetryReq struct {
		ID    types.NodeID
		Snap  metrics.Snapshot
		Spans []metrics.SpanRecord
	}
	maybeTask struct {
		State types.TaskState
		OK    bool
	}
	maybeObject struct {
		Info types.ObjectInfo
		OK   bool
	}
	maybeNode struct {
		Info types.NodeInfo
		OK   bool
	}
	maybeGroup struct {
		Info types.PlacementGroupInfo
		OK   bool
	}
	casJobReq struct {
		ID   types.JobID
		From []types.JobState
		To   types.JobState
		// Op is the idempotency token for retried job-state CAS claims
		// (0 = no dedup); see Store.CASJobStateOp.
		Op uint64
	}
	maybeJob struct {
		Info types.JobInfo
		OK   bool
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
	pinObjectsReq struct {
		Deltas map[types.ObjectID]int64
		// Op is the batch's idempotency token, recorded per object.
		Op uint64
	}
)

// Registrar is the method-registration surface RegisterService needs.
// *transport.Server satisfies it directly; a GCS shard service passes a
// wrapper that gates every handler behind its kill switch so a "crashed"
// shard stops answering even clients holding live connections.
type Registrar interface {
	Handle(method string, h transport.Handler)
	HandleStream(method string, h transport.StreamHandler)
}

// handle registers one unary method: decode the request, call fn, encode
// its answer. Store methods whose signature is already func(Req) Resp are
// passed directly; the rest unpack a request struct in a one-line closure.
func handle[Req, Resp any](srv Registrar, method string, fn func(Req) Resp) {
	srv.Handle(method, func(payload []byte) ([]byte, error) {
		req, err := codec.DecodeAs[Req](payload)
		if err != nil {
			return nil, err
		}
		return codec.Encode(fn(req))
	})
}

// handle0 registers a unary method that takes no request.
func handle0[Resp any](srv Registrar, method string, fn func() Resp) {
	srv.Handle(method, func([]byte) ([]byte, error) { return codec.Encode(fn()) })
}

// ack adapts a method with no result to the wire's `true` acknowledgement.
func ack[Req any](fn func(Req)) func(Req) bool {
	return func(req Req) bool { fn(req); return true }
}

// RegisterService exposes a local Store over a transport server. The batch
// and scan methods drop the store's failed-set / complete results: a local
// store applies everything it is given and scans its whole table, so both
// are client-side (sharded transport) concepts.
func RegisterService(srv Registrar, store *Store) {
	handle0(srv, MethodNowNs, store.NowNs)

	handle(srv, MethodAddTask, store.AddTask)
	handle(srv, MethodGetTask, func(id types.TaskID) maybeTask {
		st, ok := store.GetTask(id)
		return maybeTask{State: st, OK: ok}
	})
	handle(srv, MethodCASTaskStatus, func(r casStatusReq) bool {
		return store.CASTaskStatusOp(r.ID, r.From, r.To, r.Op)
	})
	handle(srv, MethodClaimTask, func(r claimTaskReq) claimTaskResp {
		seq, ok := store.ClaimTaskOp(r.ID, r.From, r.To, r.Owner, r.Op)
		return claimTaskResp{Seq: seq, OK: ok}
	})
	handle(srv, MethodModifyTaskStates, ack(func(r types.TaskLedgerBatch) {
		store.ModifyTaskStates(r.Node, r.Deltas, r.Op)
	}))
	handle(srv, MethodLiveTasksOwned, func(owner types.NodeID) []types.TaskState {
		tasks, _ := store.LiveTasksOwnedBy(owner)
		return tasks
	})
	handle0(srv, MethodTasks, store.Tasks)
	handle(srv, MethodStalePending, store.StalePendingTasks)

	handle(srv, MethodEnsureObjects, ack(func(r ensureObjectsReq) { store.EnsureObjects(r.Producers) }))
	handle(srv, MethodAddObjLocation, ack(func(r objLocationReq) { store.AddObjectLocation(r.ID, r.Node, r.Size) }))
	handle(srv, MethodRemoveObjLoc, ack(func(r objLocationReq) { store.RemoveObjectLocation(r.ID, r.Node) }))
	handle(srv, MethodGetObject, func(id types.ObjectID) maybeObject {
		info, ok := store.GetObject(id)
		return maybeObject{Info: info, OK: ok}
	})
	handle0(srv, MethodObjects, store.Objects)
	handle(srv, MethodModifyObjRefs, ack(func(r modifyRefsReq) {
		store.ModifyObjectRefCounts(r.Node, r.Deltas, r.Op)
	}))
	handle(srv, MethodSweepDeadRefs, func(r sweepRefsReq) int { return store.SweepDeadNodeRefs(r.Node) })
	handle(srv, MethodMarkObjSpilled, ack(func(r markSpilledReq) { store.MarkObjectSpilled(r.ID, r.Node, r.Spilled) }))

	handle(srv, MethodCreateGroup, store.CreatePlacementGroup)
	handle(srv, MethodRemoveGroup, store.RemovePlacementGroup)
	handle(srv, MethodGetGroup, func(id types.PlacementGroupID) maybeGroup {
		info, ok := store.GetPlacementGroup(id)
		return maybeGroup{Info: info, OK: ok}
	})
	handle0(srv, MethodGroups, store.PlacementGroups)
	handle(srv, MethodCASGroup, func(r casGroupReq) bool {
		return store.CASPlacementGroupStateOp(r.ID, r.From, r.To, r.Nodes, r.Claim, r.Op)
	})

	handle(srv, MethodCreateJob, store.CreateJob)
	handle(srv, MethodGetJob, func(id types.JobID) maybeJob {
		info, ok := store.GetJob(id)
		return maybeJob{Info: info, OK: ok}
	})
	handle0(srv, MethodJobs, store.Jobs)
	handle(srv, MethodCASJob, func(r casJobReq) bool { return store.CASJobStateOp(r.ID, r.From, r.To, r.Op) })
	handle(srv, MethodMarkJobPurged, store.MarkJobPurged)
	handle(srv, MethodJobTasks, func(job types.JobID) []types.TaskState {
		tasks, _ := store.JobTasks(job)
		return tasks
	})
	handle(srv, MethodForceReleaseObjs, ack(func(r objectIDsReq) { store.ForceReleaseObjects(r.IDs) }))
	handle(srv, MethodPurgeObjects, func(r objectIDsReq) objectIDsReq {
		return objectIDsReq{IDs: store.PurgeObjects(r.IDs)}
	})
	handle(srv, MethodPurgeTasks, func(r taskIDsReq) purgeTasksResp {
		args, left := store.PurgeTasks(r.IDs)
		return purgeTasksResp{Args: args, Left: left}
	})
	handle(srv, MethodRecordFacts, func(r recordFactsReq) recordFactsResp {
		return recordFactsResp{Objects: store.objectFacts(r.Objects), Tasks: store.taskFacts(r.Tasks)}
	})
	handle(srv, MethodPinObjects, ack(func(r pinObjectsReq) { store.PinObjects(r.Deltas, r.Op) }))

	handle(srv, MethodPublishSpill, ack(store.PublishSpill))
	handle(srv, MethodRegisterNode, ack(store.RegisterNode))
	handle(srv, MethodHeartbeat, ack(func(r heartbeatReq) { store.Heartbeat(r.ID, r.Queue, r.Avail, r.Store) }))
	handle(srv, MethodMarkNodeDead, ack(store.MarkNodeDead))
	handle(srv, MethodCASNodeState, func(r casNodeReq) bool { return store.CASNodeStateOp(r.ID, r.From, r.To, r.Op) })
	handle(srv, MethodGetNode, func(id types.NodeID) maybeNode {
		info, ok := store.GetNode(id)
		return maybeNode{Info: info, OK: ok}
	})
	handle0(srv, MethodNodes, store.Nodes)
	handle(srv, MethodLogEvent, ack(store.LogEvent))
	handle0(srv, MethodEvents, store.Events)
	handle(srv, MethodPublishTelemetry, ack(func(r publishTelemetryReq) { store.PublishTelemetry(r.ID, r.Snap, r.Spans) }))
	handle0(srv, MethodTelemetry, store.Telemetry)
	handle0(srv, MethodSpans, store.Spans)

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
