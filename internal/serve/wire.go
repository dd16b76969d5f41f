// Package serve implements the reptile-serve front door (DESIGN.md §17):
// a small length-prefixed TCP protocol between external correction clients
// and a resident SpectrumService. Clients are not transport ranks — they
// speak only this protocol to the front-door rank, which bridges each
// connection onto a correction session multiplexed across the rank group.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"reptile/internal/core"
	"reptile/internal/reptile"
)

// Front-door framing: op u8 | len u32 LE | payload. One request frame in,
// one response frame out, strictly alternating per connection.
const (
	opOpen    byte = 1 // client → server: tenant name bytes
	opChunk   byte = 2 // client → server: reads batch to correct
	opClose   byte = 3 // client → server: finish the session (empty)
	opOpenOK  byte = 4 // server → client: session admitted (empty)
	opChunkOK byte = 5 // server → client: result counters | corrected batch
	opCloseOK byte = 6 // server → client: session retired (empty)
	opErr     byte = 7 // server → client: kind u8 | rank u32 | message
)

// Frame geometry.
const (
	frameHdrBytes  = 5       // op u8 + len u32
	maxFrameBytes  = 1 << 28 // refuse absurd lengths before allocating
	frameStepBytes = 1 << 16 // payload read granularity (see readFrame)
	resultBytes    = 48      // 6 × u64 reptile.Result counters
	errHdrBytes    = 5       // kind u8 + rank u32
)

// writeFrame emits one frame.
func writeFrame(w io.Writer, op byte, payload []byte) error {
	if len(payload) > maxFrameBytes {
		return fmt.Errorf("serve: %d-byte frame exceeds the %d-byte maximum", len(payload), maxFrameBytes)
	}
	hdr := make([]byte, frameHdrBytes)
	hdr[0] = op
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame. io.EOF surfaces untouched so callers can tell
// a clean disconnect from a torn frame. The header's length is only a
// claim: the payload is read in frameStepBytes steps and its buffer grows
// with the bytes that actually arrive, so a peer that announces a large
// frame and then stalls or hangs up costs one step, not the claimed size.
func readFrame(r io.Reader) (op byte, payload []byte, err error) {
	hdr := make([]byte, frameHdrBytes)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[1:]))
	if n > maxFrameBytes {
		return 0, nil, fmt.Errorf("serve: %d-byte frame exceeds the %d-byte maximum", n, maxFrameBytes)
	}
	if n == 0 {
		return hdr[0], nil, nil
	}
	for len(payload) < n {
		step := min(n-len(payload), frameStepBytes)
		payload = slices.Grow(payload, step)
		got, err := io.ReadFull(r, payload[len(payload):len(payload)+step])
		payload = payload[:len(payload)+got]
		if err != nil {
			if err == io.EOF && len(payload) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, fmt.Errorf("serve: torn %d-byte frame: %w", n, err)
		}
	}
	return hdr[0], payload, nil
}

// encodeResult packs the chunk's correction counters, the fixed prefix of
// every opChunkOK payload.
func encodeResult(res reptile.Result) []byte {
	buf := make([]byte, resultBytes)
	binary.LittleEndian.PutUint64(buf[0:8], uint64(res.ReadsProcessed))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(res.ReadsChanged))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(res.BasesCorrected))
	binary.LittleEndian.PutUint64(buf[24:32], uint64(res.TilesSolid))
	binary.LittleEndian.PutUint64(buf[32:40], uint64(res.TilesRepaired))
	binary.LittleEndian.PutUint64(buf[40:48], uint64(res.TilesGivenUp))
	return buf
}

// decodeResult parses an opChunkOK result prefix.
func decodeResult(b []byte) (reptile.Result, error) {
	var res reptile.Result
	if len(b) < resultBytes {
		return res, fmt.Errorf("serve: corrected chunk of %d bytes", len(b))
	}
	res.ReadsProcessed = int64(binary.LittleEndian.Uint64(b[0:8]))
	res.ReadsChanged = int64(binary.LittleEndian.Uint64(b[8:16]))
	res.BasesCorrected = int64(binary.LittleEndian.Uint64(b[16:24]))
	res.TilesSolid = int64(binary.LittleEndian.Uint64(b[24:32]))
	res.TilesRepaired = int64(binary.LittleEndian.Uint64(b[32:40]))
	res.TilesGivenUp = int64(binary.LittleEndian.Uint64(b[40:48]))
	return res, nil
}

// encodeErr flattens an error into an opErr payload. A typed session
// rejection keeps its kind and executor rank, so the client can rebuild the
// same *core.SessionError the in-process API returns; anything else travels
// as kind 0 with its message.
func encodeErr(err error) []byte {
	var kind core.SessionRejectKind
	rank, msg := 0, err.Error()
	var serr *core.SessionError
	if errors.As(err, &serr) {
		kind, rank, msg = serr.Kind, serr.Rank, serr.Msg
	}
	buf := make([]byte, errHdrBytes, errHdrBytes+len(msg))
	buf[0] = byte(kind)
	binary.LittleEndian.PutUint32(buf[1:], uint32(rank))
	return append(buf, msg...)
}

// decodeErr rebuilds the error an opErr payload carries. Typed rejections
// come back as *core.SessionError (matching core.ErrSessionRejected), so a
// TCP client sees the exact error surface an in-process caller would.
func decodeErr(b []byte, tenant string) error {
	if len(b) < errHdrBytes {
		return fmt.Errorf("serve: error frame of %d bytes", len(b))
	}
	kind := core.SessionRejectKind(b[0])
	rank := int(binary.LittleEndian.Uint32(b[1:5]))
	msg := string(b[errHdrBytes:])
	if kind == 0 {
		return fmt.Errorf("serve: %s", msg)
	}
	return &core.SessionError{Kind: kind, Rank: rank, Tenant: tenant, Msg: msg}
}
