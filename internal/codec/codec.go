// Package codec serializes values crossing task boundaries. Every task
// argument and return value is stored in the object store as bytes, exactly
// as the paper's prototype serialized Python values into its shared-memory
// store. A payload is one tag byte and a body in one of four forms: raw
// bytes as they are, the control-plane records in hand-written binary
// (fast.go), plain-data application values in a positional form written by
// a plan compiled once per type (value.go), and everything else — maps,
// pointers, interfaces, types with their own marshalers — in encoding/gob.
// DESIGN.md "Payload forms" has the table.
package codec

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Payload tags: the first byte of every payload, and the only place they
// are defined. tagGob and tagBin are on disk (WAL, snapshot) and may never
// move; the others live in object stores and on the wire.
const (
	tagGob    = 0x01 // encoding/gob stream, self-describing, evolves by field name
	tagRaw    = 0x02 // the bytes of a []byte, as they are
	tagNull   = 0x03 // nil
	tagBin    = 0x04 // control-plane record: type byte + hand-written fields (fast.go)
	tagErrVal = 0x05 // a failed task's message, stored under its return IDs (errval.go)
	tagVal    = 0x06 // plain-data value: shape fingerprint + positional body (value.go)
)

// Encode serializes v: nil and []byte as themselves, the control-plane
// records in their binary form, plain data in the value form, and whatever
// none of those covers in gob.
func Encode(v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return []byte{tagNull}, nil
	case []byte:
		// Join allocates without zeroing, exactly len == cap: a 1 MiB payload
		// is not cleared only to be overwritten.
		return bytes.Join([][]byte{{tagRaw}, x}, nil), nil
	}
	if b, ok := encodeFast(v); ok {
		return b, nil
	}
	if b, ok := encodeValue(v); ok {
		return b, nil
	}
	return encodeGob(v)
}

// clone copies b into an allocation that is not zeroed first and caps it at
// its length, so that a holder's append reallocates instead of writing into
// spare capacity. nil stays nil and empty stays empty.
func clone(b []byte) []byte {
	return bytes.Clone(b)[:len(b):len(b)]
}

// encodeGob is the fallback form, and the one a journaled record that must
// tolerate a field being added is written in.
func encodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte(tagGob)
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("codec: encode %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// MustEncode is Encode but panics on error; for values known serializable.
func MustEncode(v any) []byte {
	return must(Encode(v))
}

// MustEncodeGob writes v in the gob form whatever its shape. It is for the
// control-plane records that are journaled and have no binary form of their
// own (event log, clock epoch): what outlives a process
// keeps the form that evolves by field name. Decode reads it like any other
// payload.
func MustEncodeGob(v any) []byte {
	return must(encodeGob(v))
}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// Decode deserializes data into out, which must be a non-nil pointer.
// Raw payloads require out to be *[]byte; null payloads leave out untouched.
// A value payload decodes only into a target of its own shape, where gob
// converted: an int into an int32, a float32 into a float64, a struct into
// one with fewer or more fields, or a T into a *T are each ErrShapeMismatch.
func Decode(data []byte, out any) error {
	if len(data) == 0 {
		return fmt.Errorf("codec: empty payload")
	}
	switch data[0] {
	case tagNull:
		return nil
	case tagRaw:
		p, ok := out.(*[]byte)
		if !ok {
			return fmt.Errorf("codec: raw payload requires *[]byte, got %T", out)
		}
		*p = append((*p)[:0], data[1:]...)
		return nil
	case tagGob:
		if err := gob.NewDecoder(bytes.NewReader(data[1:])).Decode(out); err != nil {
			return fmt.Errorf("codec: decode into %T: %w", out, err)
		}
		return nil
	case tagBin:
		return decodeFast(data[1:], out)
	case tagVal:
		return decodeValue(data[1:], out)
	default:
		return fmt.Errorf("codec: unknown tag 0x%02x", data[0])
	}
}

// DecodeAs is the generic convenience form of Decode.
func DecodeAs[T any](data []byte) (T, error) {
	var v T
	// Special-case []byte so DecodeAs[[]byte] hits the raw path.
	if p, ok := any(&v).(*[]byte); ok {
		err := Decode(data, p)
		return v, err
	}
	err := Decode(data, &v)
	return v, err
}
