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
	MethodEnsureObject     = "gcs.ensureObject"
	MethodEnsureObjects    = "gcs.ensureObjects"
	MethodAddObjLocation   = "gcs.addObjLocation"
	MethodRemoveObjLoc     = "gcs.removeObjLocation"
	MethodGetObject        = "gcs.getObject"
	MethodObjects          = "gcs.objects"
	MethodModifyObjRef     = "gcs.modifyObjRefCount"
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
	MethodPurgeJobTasks    = "gcs.purgeJobTasks"
	MethodRegisterNode     = "gcs.registerNode"
	MethodHeartbeat        = "gcs.heartbeat"
	MethodMarkNodeDead     = "gcs.markNodeDead"
	MethodCASNodeState     = "gcs.casNodeState"
	MethodGetNode          = "gcs.getNode"
	MethodNodes            = "gcs.nodes"
	MethodRegisterFunction = "gcs.registerFunction"
	MethodHasFunction      = "gcs.hasFunction"
	MethodFunctions        = "gcs.functions"
	MethodLogEvent         = "gcs.logEvent"
	MethodEvents           = "gcs.events"
	MethodPublishTelemetry = "gcs.publishTelemetry"
	MethodTelemetry        = "gcs.telemetry"
	MethodSpans            = "gcs.spans"

	StreamTaskStatus = "gcs.sub.taskStatus" // payload: TaskID hex
	StreamObjReady   = "gcs.sub.objReady"   // payload: ObjectID hex
	StreamSpill      = "gcs.sub.spill"
	StreamNodes      = "gcs.sub.nodes"
	StreamObjGC      = "gcs.sub.objGC"
	StreamGroups     = "gcs.sub.groups"
	StreamJobs       = "gcs.sub.jobs"
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
	ensureObjectReq struct {
		ID       types.ObjectID
		Producer types.TaskID
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
	modifyRefReq struct {
		ID    types.ObjectID
		Delta int64
		// Op is the idempotency token for retried deltas (0 = no dedup);
		// see Store.ModifyObjectRefCountOp.
		Op uint64
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
		// Store.CASPlacementGroupStateClaim.
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
)

// Registrar is the method-registration surface RegisterService needs.
// *transport.Server satisfies it directly; a GCS shard service passes a
// wrapper that gates every handler behind its kill switch so a "crashed"
// shard stops answering even clients holding live connections.
type Registrar interface {
	Handle(method string, h transport.Handler)
	HandleStream(method string, h transport.StreamHandler)
}

// RegisterService exposes a local Store over a transport server.
func RegisterService(srv Registrar, store *Store) {
	unary := func(method string, h func(payload []byte) (any, error)) {
		srv.Handle(method, func(payload []byte) ([]byte, error) {
			out, err := h(payload)
			if err != nil {
				return nil, err
			}
			return codec.Encode(out)
		})
	}

	unary(MethodNowNs, func(p []byte) (any, error) { return store.NowNs(), nil })
	unary(MethodAddTask, func(p []byte) (any, error) {
		st, err := codec.DecodeAs[types.TaskState](p)
		if err != nil {
			return nil, err
		}
		return store.AddTask(st), nil
	})
	unary(MethodGetTask, func(p []byte) (any, error) {
		id, err := codec.DecodeAs[types.TaskID](p)
		if err != nil {
			return nil, err
		}
		st, ok := store.GetTask(id)
		return maybeTask{State: st, OK: ok}, nil
	})
	unary(MethodCASTaskStatus, func(p []byte) (any, error) {
		req, err := codec.DecodeAs[casStatusReq](p)
		if err != nil {
			return nil, err
		}
		return store.CASTaskStatusOp(req.ID, req.From, req.To, req.Op), nil
	})
	unary(MethodClaimTask, func(p []byte) (any, error) {
		req, err := codec.DecodeAs[claimTaskReq](p)
		if err != nil {
			return nil, err
		}
		seq, ok := store.ClaimTaskOp(req.ID, req.From, req.To, req.Owner, req.Op)
		return claimTaskResp{Seq: seq, OK: ok}, nil
	})
	unary(MethodModifyTaskStates, func(p []byte) (any, error) {
		req, err := codec.DecodeAs[types.TaskLedgerBatch](p)
		if err != nil {
			return nil, err
		}
		// The local store applies everything it is given; the failed set is
		// a client-side (sharded transport) concept.
		store.ModifyTaskStates(req.Node, req.Deltas, req.Op)
		return true, nil
	})
	unary(MethodLiveTasksOwned, func(p []byte) (any, error) {
		id, err := codec.DecodeAs[types.NodeID](p)
		if err != nil {
			return nil, err
		}
		tasks, _ := store.LiveTasksOwnedBy(id)
		return tasks, nil
	})
	unary(MethodTasks, func(p []byte) (any, error) { return store.Tasks(), nil })
	unary(MethodStalePending, func(p []byte) (any, error) {
		age, err := codec.DecodeAs[int64](p)
		if err != nil {
			return nil, err
		}
		return store.StalePendingTasks(age), nil
	})
	unary(MethodEnsureObject, func(p []byte) (any, error) {
		req, err := codec.DecodeAs[ensureObjectReq](p)
		if err != nil {
			return nil, err
		}
		store.EnsureObject(req.ID, req.Producer)
		return true, nil
	})
	unary(MethodEnsureObjects, func(p []byte) (any, error) {
		req, err := codec.DecodeAs[ensureObjectsReq](p)
		if err != nil {
			return nil, err
		}
		store.EnsureObjects(req.Producers)
		return true, nil
	})
	unary(MethodAddObjLocation, func(p []byte) (any, error) {
		req, err := codec.DecodeAs[objLocationReq](p)
		if err != nil {
			return nil, err
		}
		store.AddObjectLocation(req.ID, req.Node, req.Size)
		return true, nil
	})
	unary(MethodRemoveObjLoc, func(p []byte) (any, error) {
		req, err := codec.DecodeAs[objLocationReq](p)
		if err != nil {
			return nil, err
		}
		store.RemoveObjectLocation(req.ID, req.Node)
		return true, nil
	})
	unary(MethodGetObject, func(p []byte) (any, error) {
		id, err := codec.DecodeAs[types.ObjectID](p)
		if err != nil {
			return nil, err
		}
		info, ok := store.GetObject(id)
		return maybeObject{Info: info, OK: ok}, nil
	})
	unary(MethodObjects, func(p []byte) (any, error) { return store.Objects(), nil })
	unary(MethodModifyObjRef, func(p []byte) (any, error) {
		req, err := codec.DecodeAs[modifyRefReq](p)
		if err != nil {
			return nil, err
		}
		return store.ModifyObjectRefCountOp(req.ID, req.Delta, req.Op), nil
	})
	unary(MethodModifyObjRefs, func(p []byte) (any, error) {
		req, err := codec.DecodeAs[modifyRefsReq](p)
		if err != nil {
			return nil, err
		}
		// The local store applies everything it is given; the failed set is
		// a client-side (sharded transport) concept.
		store.ModifyObjectRefCounts(req.Node, req.Deltas, req.Op)
		return true, nil
	})
	unary(MethodSweepDeadRefs, func(p []byte) (any, error) {
		req, err := codec.DecodeAs[sweepRefsReq](p)
		if err != nil {
			return nil, err
		}
		return store.SweepDeadNodeRefs(req.Node), nil
	})
	unary(MethodMarkObjSpilled, func(p []byte) (any, error) {
		req, err := codec.DecodeAs[markSpilledReq](p)
		if err != nil {
			return nil, err
		}
		store.MarkObjectSpilled(req.ID, req.Node, req.Spilled)
		return true, nil
	})
	unary(MethodCreateGroup, func(p []byte) (any, error) {
		spec, err := codec.DecodeAs[types.PlacementGroupSpec](p)
		if err != nil {
			return nil, err
		}
		return store.CreatePlacementGroup(spec), nil
	})
	unary(MethodRemoveGroup, func(p []byte) (any, error) {
		id, err := codec.DecodeAs[types.PlacementGroupID](p)
		if err != nil {
			return nil, err
		}
		return store.RemovePlacementGroup(id), nil
	})
	unary(MethodGetGroup, func(p []byte) (any, error) {
		id, err := codec.DecodeAs[types.PlacementGroupID](p)
		if err != nil {
			return nil, err
		}
		info, ok := store.GetPlacementGroup(id)
		return maybeGroup{Info: info, OK: ok}, nil
	})
	unary(MethodGroups, func(p []byte) (any, error) { return store.PlacementGroups(), nil })
	unary(MethodCASGroup, func(p []byte) (any, error) {
		req, err := codec.DecodeAs[casGroupReq](p)
		if err != nil {
			return nil, err
		}
		return store.CASPlacementGroupStateOp(req.ID, req.From, req.To, req.Nodes, req.Claim, req.Op), nil
	})
	unary(MethodCreateJob, func(p []byte) (any, error) {
		spec, err := codec.DecodeAs[types.JobSpec](p)
		if err != nil {
			return nil, err
		}
		return store.CreateJob(spec), nil
	})
	unary(MethodGetJob, func(p []byte) (any, error) {
		id, err := codec.DecodeAs[types.JobID](p)
		if err != nil {
			return nil, err
		}
		info, ok := store.GetJob(id)
		return maybeJob{Info: info, OK: ok}, nil
	})
	unary(MethodJobs, func(p []byte) (any, error) { return store.Jobs(), nil })
	unary(MethodCASJob, func(p []byte) (any, error) {
		req, err := codec.DecodeAs[casJobReq](p)
		if err != nil {
			return nil, err
		}
		return store.CASJobStateOp(req.ID, req.From, req.To, req.Op), nil
	})
	unary(MethodMarkJobPurged, func(p []byte) (any, error) {
		id, err := codec.DecodeAs[types.JobID](p)
		if err != nil {
			return nil, err
		}
		return store.MarkJobPurged(id), nil
	})
	unary(MethodJobTasks, func(p []byte) (any, error) {
		id, err := codec.DecodeAs[types.JobID](p)
		if err != nil {
			return nil, err
		}
		tasks, _ := store.JobTasks(id)
		return tasks, nil
	})
	unary(MethodForceReleaseObjs, func(p []byte) (any, error) {
		req, err := codec.DecodeAs[objectIDsReq](p)
		if err != nil {
			return nil, err
		}
		// The local store applies everything it is given; the failed set
		// is a client-side (sharded transport) concept.
		store.ForceReleaseObjects(req.IDs)
		return true, nil
	})
	unary(MethodPurgeObjects, func(p []byte) (any, error) {
		req, err := codec.DecodeAs[objectIDsReq](p)
		if err != nil {
			return nil, err
		}
		return objectIDsReq{IDs: store.PurgeObjects(req.IDs)}, nil
	})
	unary(MethodPurgeJobTasks, func(p []byte) (any, error) {
		id, err := codec.DecodeAs[types.JobID](p)
		if err != nil {
			return nil, err
		}
		n, _ := store.PurgeJobTasks(id)
		return n, nil
	})
	unary(MethodPublishSpill, func(p []byte) (any, error) {
		spec, err := codec.DecodeAs[types.TaskSpec](p)
		if err != nil {
			return nil, err
		}
		store.PublishSpill(spec)
		return true, nil
	})
	unary(MethodRegisterNode, func(p []byte) (any, error) {
		info, err := codec.DecodeAs[types.NodeInfo](p)
		if err != nil {
			return nil, err
		}
		store.RegisterNode(info)
		return true, nil
	})
	unary(MethodHeartbeat, func(p []byte) (any, error) {
		req, err := codec.DecodeAs[heartbeatReq](p)
		if err != nil {
			return nil, err
		}
		store.Heartbeat(req.ID, req.Queue, req.Avail, req.Store)
		return true, nil
	})
	unary(MethodMarkNodeDead, func(p []byte) (any, error) {
		id, err := codec.DecodeAs[types.NodeID](p)
		if err != nil {
			return nil, err
		}
		store.MarkNodeDead(id)
		return true, nil
	})
	unary(MethodCASNodeState, func(p []byte) (any, error) {
		req, err := codec.DecodeAs[casNodeReq](p)
		if err != nil {
			return nil, err
		}
		return store.CASNodeStateOp(req.ID, req.From, req.To, req.Op), nil
	})
	unary(MethodGetNode, func(p []byte) (any, error) {
		id, err := codec.DecodeAs[types.NodeID](p)
		if err != nil {
			return nil, err
		}
		info, ok := store.GetNode(id)
		return maybeNode{Info: info, OK: ok}, nil
	})
	unary(MethodNodes, func(p []byte) (any, error) { return store.Nodes(), nil })
	unary(MethodRegisterFunction, func(p []byte) (any, error) {
		info, err := codec.DecodeAs[FunctionInfo](p)
		if err != nil {
			return nil, err
		}
		store.RegisterFunction(info)
		return true, nil
	})
	unary(MethodHasFunction, func(p []byte) (any, error) {
		name, err := codec.DecodeAs[string](p)
		if err != nil {
			return nil, err
		}
		return store.HasFunction(name), nil
	})
	unary(MethodFunctions, func(p []byte) (any, error) { return store.Functions(), nil })
	unary(MethodLogEvent, func(p []byte) (any, error) {
		ev, err := codec.DecodeAs[types.Event](p)
		if err != nil {
			return nil, err
		}
		store.LogEvent(ev)
		return true, nil
	})
	unary(MethodEvents, func(p []byte) (any, error) { return store.Events(), nil })
	unary(MethodPublishTelemetry, func(p []byte) (any, error) {
		req, err := codec.DecodeAs[publishTelemetryReq](p)
		if err != nil {
			return nil, err
		}
		store.PublishTelemetry(req.ID, req.Snap, req.Spans)
		return true, nil
	})
	unary(MethodTelemetry, func(p []byte) (any, error) { return store.Telemetry(), nil })
	unary(MethodSpans, func(p []byte) (any, error) { return store.Spans(), nil })

	// Streaming subscriptions: forward the local subscription's messages
	// until the client disconnects. The first message is an empty ack sent
	// after the local subscription exists, so a client that has seen the
	// ack knows no later publish can be missed (Remote.subscribe blocks on
	// it).
	forward := func(sub Sub, stream transport.ServerStream) error {
		defer sub.Close()
		if err := stream.Send(nil); err != nil {
			return nil
		}
		for {
			select {
			case msg, ok := <-sub.C():
				if !ok {
					return nil
				}
				if err := stream.Send(msg); err != nil {
					return nil // client gone
				}
			case <-stream.Done():
				return nil
			}
		}
	}
	srv.HandleStream(StreamTaskStatus, func(payload []byte, stream transport.ServerStream) error {
		id, err := types.ParseTaskID(string(payload))
		if err != nil {
			return fmt.Errorf("gcs: bad task-status subscription: %w", err)
		}
		return forward(store.SubscribeTaskStatus(id), stream)
	})
	srv.HandleStream(StreamObjReady, func(payload []byte, stream transport.ServerStream) error {
		id, err := types.ParseObjectID(string(payload))
		if err != nil {
			return fmt.Errorf("gcs: bad object-ready subscription: %w", err)
		}
		return forward(store.SubscribeObjectReady(id), stream)
	})
	srv.HandleStream(StreamSpill, func(payload []byte, stream transport.ServerStream) error {
		return forward(store.SubscribeSpill(), stream)
	})
	srv.HandleStream(StreamNodes, func(payload []byte, stream transport.ServerStream) error {
		return forward(store.SubscribeNodeEvents(), stream)
	})
	srv.HandleStream(StreamGroups, func(payload []byte, stream transport.ServerStream) error {
		return forward(store.SubscribePlacementGroups(), stream)
	})
	srv.HandleStream(StreamJobs, func(payload []byte, stream transport.ServerStream) error {
		return forward(store.SubscribeJobs(), stream)
	})
	srv.HandleStream(StreamObjGC, func(payload []byte, stream transport.ServerStream) error {
		// Subscribe first (so nothing published after this point is lost),
		// then replay the currently GC-eligible set before forwarding live
		// messages: a subscriber (re)attaching after a shard crash learns
		// of zero-refcount transitions whose publish died with the old
		// incarnation. Reclaim is idempotent, so overlap is harmless.
		sub := store.SubscribeObjectGC()
		defer sub.Close()
		if err := stream.Send(nil); err != nil {
			return nil
		}
		for _, id := range store.GCEligibleObjects() {
			if err := stream.Send(id[:]); err != nil {
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
	})
}
