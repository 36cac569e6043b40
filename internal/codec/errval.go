package codec

// Error values: when a task fails, the system stores a tagged error payload
// under each of the task's return object IDs so that any Get on those
// futures surfaces the failure instead of blocking forever. This mirrors
// how the paper's prototype propagated exceptions through futures. An error
// payload lives only in object stores and on the wire to them — never in the
// WAL or a snapshot, where a failed task is TaskState.Error.

import "bytes"

// EncodeError builds an error payload carrying msg, in one exact-size
// allocation that is not zeroed first, as Encode's raw form.
func EncodeError(msg string) []byte {
	return bytes.Join([][]byte{{tagErrVal}, []byte(msg)}, nil)
}

// AsError reports whether data is an error payload, and if so its message.
func AsError(data []byte) (string, bool) {
	if len(data) == 0 || data[0] != tagErrVal {
		return "", false
	}
	return string(data[1:]), true
}
