package gcs

import (
	"encoding/binary"

	"repro/internal/codec"
	"repro/internal/types"
)

// DecodeSpillSpec decodes a spill-channel payload back into a TaskSpec.
func DecodeSpillSpec(raw []byte) (types.TaskSpec, error) {
	return codec.DecodeAs[types.TaskSpec](raw)
}

// DecodeNodeEvent decodes a node-membership payload.
func DecodeNodeEvent(raw []byte) (types.NodeInfo, error) {
	return codec.DecodeAs[types.NodeInfo](raw)
}

// DecodeGroupEvent decodes a placement-group channel payload.
func DecodeGroupEvent(raw []byte) (types.PlacementGroupInfo, error) {
	return codec.DecodeAs[types.PlacementGroupInfo](raw)
}

// DecodeJobEvent decodes a job channel payload.
func DecodeJobEvent(raw []byte) (types.JobInfo, error) {
	return codec.DecodeAs[types.JobInfo](raw)
}

// nodeReadyPayload is a TopicNodeReady message: the object, the node that
// holds its new copy, and its size.
func nodeReadyPayload(id types.ObjectID, at types.NodeID, size int64) []byte {
	msg := append(append(make([]byte, 0, 2*types.IDSize+8), id[:]...), at[:]...)
	return binary.LittleEndian.AppendUint64(msg, uint64(size))
}

// DecodeNodeReady decodes a TopicNodeReady message into what a pull of the
// watched object needs: its ID, its size, and the new copy as its one
// location, in memory.
func DecodeNodeReady(raw []byte) (types.ObjectInfo, bool) {
	if len(raw) != 2*types.IDSize+8 {
		return types.ObjectInfo{}, false
	}
	return types.ObjectInfo{ID: types.ObjectID(raw[:types.IDSize]), State: types.ObjectReady,
		Locations: []types.NodeID{types.NodeID(raw[types.IDSize : 2*types.IDSize])},
		Size:      int64(binary.LittleEndian.Uint64(raw[2*types.IDSize:]))}, true
}
