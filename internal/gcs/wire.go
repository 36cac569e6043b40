package gcs

import (
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
