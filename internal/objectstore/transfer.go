package objectstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/transport"
	"repro/internal/types"
)

// Transport method names for the inter-node object pull protocol. The
// serving side lives here next to the store; the pulling side is the
// chunked pull manager in internal/lifetime, which replaced the original
// single-shot fetcher.
const (
	// PullMethod returns a whole object: request payload is the raw
	// ObjectID, response is the object bytes. Small objects use it — one
	// round trip beats chunk bookkeeping below the chunk size.
	PullMethod = "objectstore.pull"
	// PullChunkMethod returns one byte range of an object: request payload
	// is EncodeChunkRequest, response is the requested slice. Large objects
	// are pulled as bounded-concurrency chunk streams.
	PullChunkMethod = "objectstore.pullChunk"
	// PushMethod stores an object the caller sends unasked: request payload
	// is EncodePushRequest, response is empty. A node that finishes a task
	// for another node's future delivers a small result this way (DESIGN.md
	// §6.3); the sending side is PullManager.Deliver.
	PushMethod = "objectstore.push"
)

// ErrNotFound is returned by the pull handlers for objects not resident.
var ErrNotFound = errors.New("objectstore: object not found")

// ErrBadChunk is returned for malformed or out-of-range chunk requests.
var ErrBadChunk = errors.New("objectstore: bad chunk request")

// chunkReqSize is the fixed wire size of a chunk request.
const chunkReqSize = types.IDSize + 8 + 8

// EncodeChunkRequest builds the wire form of a chunk request:
// ObjectID | uint64 offset | uint64 length, big-endian.
func EncodeChunkRequest(id types.ObjectID, offset, length int64) []byte {
	buf := make([]byte, chunkReqSize)
	copy(buf, id[:])
	binary.BigEndian.PutUint64(buf[types.IDSize:], uint64(offset))
	binary.BigEndian.PutUint64(buf[types.IDSize+8:], uint64(length))
	return buf
}

// DecodeChunkRequest parses EncodeChunkRequest's output.
func DecodeChunkRequest(payload []byte) (id types.ObjectID, offset, length int64, err error) {
	if len(payload) != chunkReqSize {
		return id, 0, 0, fmt.Errorf("%w: %d bytes", ErrBadChunk, len(payload))
	}
	copy(id[:], payload)
	offset = int64(binary.BigEndian.Uint64(payload[types.IDSize:]))
	length = int64(binary.BigEndian.Uint64(payload[types.IDSize+8:]))
	if offset < 0 || length <= 0 {
		return id, 0, 0, fmt.Errorf("%w: offset %d length %d", ErrBadChunk, offset, length)
	}
	return id, offset, length, nil
}

// EncodePushRequest builds the wire form of a push: ObjectID | object bytes,
// in one exact-size allocation that is not zeroed first.
func EncodePushRequest(id types.ObjectID, data []byte) []byte {
	return bytes.Join([][]byte{id[:], data}, nil)
}

// RegisterPushHandler lets peers store objects here (PushMethod). The copy
// is an ordinary Put: it wakes local waiters, publishes this node as a
// location, and from then on is refcounted, collected, migrated and swept
// like a pulled copy. accepting gates it: a draining or stopped node must
// not take in copies it would only have to migrate or strand.
func RegisterPushHandler(srv *transport.Server, store *Store, accepting func() bool) {
	srv.Handle(PushMethod, func(payload []byte) ([]byte, error) {
		if len(payload) < types.IDSize {
			return nil, fmt.Errorf("objectstore: bad push request of %d bytes", len(payload))
		}
		if !accepting() {
			return nil, fmt.Errorf("objectstore: push refused by %v", store.node)
		}
		var id types.ObjectID
		copy(id[:], payload)
		// The stored bytes alias the request buffer, which EncodePushRequest
		// allocated for this one call and the sender never touches again.
		if err := store.Put(id, payload[types.IDSize:]); err != nil {
			return nil, err
		}
		store.obs.pushReceived.Inc()
		return nil, nil
	})
}

// RegisterPullHandler exposes the store's objects to peers, both whole
// (PullMethod) and as byte ranges (PullChunkMethod). Spilled objects are
// served too: the store's Get restores them transparently.
func RegisterPullHandler(srv *transport.Server, store *Store) {
	srv.Handle(PullMethod, func(payload []byte) ([]byte, error) {
		if len(payload) != types.IDSize {
			return nil, fmt.Errorf("objectstore: bad pull request of %d bytes", len(payload))
		}
		var id types.ObjectID
		copy(id[:], payload)
		data, ok := store.Get(id)
		if !ok {
			return nil, fmt.Errorf("%w: %v on %v", ErrNotFound, id, store.node)
		}
		return data, nil
	})
	srv.Handle(PullChunkMethod, func(payload []byte) ([]byte, error) {
		id, offset, length, err := DecodeChunkRequest(payload)
		if err != nil {
			return nil, err
		}
		data, ok := store.GetRange(id, offset, length)
		if !ok {
			if !store.Contains(id) {
				return nil, fmt.Errorf("%w: %v on %v", ErrNotFound, id, store.node)
			}
			return nil, fmt.Errorf("%w: offset %d out of range for %v", ErrBadChunk, offset, id)
		}
		return data, nil
	})
}
