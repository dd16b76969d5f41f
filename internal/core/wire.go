package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"reptile/internal/kmer"
	"reptile/internal/msgplane"
	"reptile/internal/reads"
	"reptile/internal/transport"
)

// Application tags (non-negative; collectives use negative tag space).
// Tags 5 and 6 are the message plane's done/stop control tags
// (msgplane.TagDone/TagStop), owned by the router.
const (
	tagKmerReq msgplane.Tag = 1 // request payload: id (8 bytes); kind implied by tag
	tagTileReq msgplane.Tag = 2
	tagUniReq  msgplane.Tag = 3 // universal mode: kind byte + id (9 bytes)
	tagResp    msgplane.Tag = 4 // exists byte + count (5 bytes)

	// Batched-lookup frames (software message aggregation, the diBELLA-style
	// alternative to the one-id-per-message protocol above). Requests carry a
	// request id so responses from several in-flight batches — possibly from
	// several worker threads — can interleave and still be matched.
	tagBatchReq  msgplane.Tag = 7 // reqID u32 | n u16 | kind u8 | n × varint(zigzag id delta)
	tagBatchResp msgplane.Tag = 8 // reqID u32 | n u16 | n × varint(count<<1|exists)

	// Recovery and work-stealing frames. Steal requests/grants implement
	// correct-phase work stealing (an idle rank pulls read chunks from a
	// straggler); the return frame carries the corrected chunk home. The
	// replica push restores R=2 redundancy after a rank loss: the surviving
	// holder streams the lost shard's packed slabs to a new successor.
	tagStealReq    msgplane.Tag = 9  // reqID u32
	tagStealGrant  msgplane.Tag = 10 // reqID u32 | granted u8 | [chunk u32 | reads batch]
	tagStealReturn msgplane.Tag = 11 // chunk u32 | corrected reads batch (one-way)
	tagReplPush    msgplane.Tag = 12 // reqID u32 | owner u32 | kind u8 | slab image
	tagReplAck     msgplane.Tag = 13 // reqID u32
)

// init registers the correction protocol with the message-plane registry:
// name, direction, and payload-size bounds per tag. The router validates
// inbound frames against these bounds before any handler runs, and every
// ProtocolError/abort message prints the registered names.
func init() {
	msgplane.Register(
		msgplane.Spec{Tag: tagKmerReq, Name: "kmerReq", Dir: msgplane.DirRequest,
			MinSize: ReqBytesTagged, MaxSize: ReqBytesTagged},
		msgplane.Spec{Tag: tagTileReq, Name: "tileReq", Dir: msgplane.DirRequest,
			MinSize: ReqBytesTagged, MaxSize: ReqBytesTagged},
		msgplane.Spec{Tag: tagUniReq, Name: "uniReq", Dir: msgplane.DirRequest,
			MinSize: ReqBytesUniversal, MaxSize: ReqBytesUniversal},
		// The legacy response is Direct: the requesting worker blocks in
		// msgplane.Recv for it, so the router must leave it in the mailbox.
		msgplane.Spec{Tag: tagResp, Name: "resp", Dir: msgplane.DirResponse,
			MinSize: RespBytes, MaxSize: RespBytes, Direct: true},
		msgplane.Spec{Tag: tagBatchReq, Name: "batchReq", Dir: msgplane.DirRequest,
			MinSize: batchReqHdrBytes, MaxSize: batchReqHdrBytes + maxBatchEntries*maxReqEntry},
		msgplane.Spec{Tag: tagBatchResp, Name: "batchResp", Dir: msgplane.DirResponse,
			MinSize: batchHdrBytes, MaxSize: batchHdrBytes + maxBatchEntries*maxRespEntry},
		msgplane.Spec{Tag: tagStealReq, Name: "stealReq", Dir: msgplane.DirRequest,
			MinSize: stealReqBytes, MaxSize: stealReqBytes},
		msgplane.Spec{Tag: tagStealGrant, Name: "stealGrant", Dir: msgplane.DirResponse,
			MinSize: stealGrantHdrBytes, MaxSize: msgplane.Unbounded},
		msgplane.Spec{Tag: tagStealReturn, Name: "stealReturn", Dir: msgplane.DirRequest,
			MinSize: stealReturnHdrBytes, MaxSize: msgplane.Unbounded},
		msgplane.Spec{Tag: tagReplPush, Name: "replPush", Dir: msgplane.DirRequest,
			MinSize: replPushHdrBytes, MaxSize: msgplane.Unbounded},
		msgplane.Spec{Tag: tagReplAck, Name: "replAck", Dir: msgplane.DirResponse,
			MinSize: replAckBytes, MaxSize: replAckBytes},
	)
}

// Request kinds.
const (
	kindKmer byte = 0
	kindTile byte = 1
)

// Abort-cause kinds carried in the abort record (the payload of the
// transport's abort broadcast). The kind preserves the sentinel identity of
// the root cause across the wire, so a peer that decodes the record can
// still answer errors.Is(err, transport.ErrPeerDown) and friends.
const (
	kindAbortApp      byte = 0 // application/source error on the origin rank
	kindAbortPeerDown byte = 1 // the origin lost one of its peers
	kindAbortCorrupt  byte = 2 // the origin received a corrupt frame
)

// Wire payload sizes, used by the machine-model projection.
const (
	ReqBytesTagged    = 8 // id only; kind travels in the tag
	ReqBytesUniversal = 9 // kind + id in the payload
	RespBytes         = 5 // exists + count
)

// encodeReq builds a request payload. In universal mode the kind rides in
// the payload; otherwise it is implied by the tag and only the ID is sent.
func encodeReq(universal bool, kind byte, id kmer.ID) (tag msgplane.Tag, payload []byte) {
	if universal {
		buf := make([]byte, 9)
		buf[0] = kind
		binary.LittleEndian.PutUint64(buf[1:], uint64(id))
		return tagUniReq, buf
	}
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(id))
	if kind == kindKmer {
		return tagKmerReq, buf
	}
	return tagTileReq, buf
}

// decodeReq parses a request received with the given tag.
func decodeReq(tag msgplane.Tag, payload []byte) (kind byte, id kmer.ID, err error) {
	switch tag {
	case tagUniReq:
		if len(payload) != 9 {
			return 0, 0, fmt.Errorf("core: universal request of %d bytes", len(payload))
		}
		return payload[0], kmer.ID(binary.LittleEndian.Uint64(payload[1:])), nil
	case tagKmerReq, tagTileReq:
		if len(payload) != 8 {
			return 0, 0, fmt.Errorf("core: tagged request of %d bytes", len(payload))
		}
		kind = kindKmer
		if tag == tagTileReq {
			kind = kindTile
		}
		return kind, kmer.ID(binary.LittleEndian.Uint64(payload)), nil
	default:
		return 0, 0, &msgplane.ProtocolError{Tag: tag, Kind: msgplane.ViolationUnknownTag, From: -1, Want: -1}
	}
}

// encodeResp builds a response payload: the count, or "does not exist"
// (the paper's -1 convention; absence at the owner is definitive).
func encodeResp(count uint32, exists bool) []byte {
	buf := make([]byte, RespBytes)
	if exists {
		buf[0] = 1
	}
	binary.LittleEndian.PutUint32(buf[1:], count)
	return buf
}

// decodeResp parses a response payload.
func decodeResp(payload []byte) (count uint32, exists bool, err error) {
	if len(payload) != RespBytes {
		return 0, false, fmt.Errorf("core: response of %d bytes", len(payload))
	}
	return binary.LittleEndian.Uint32(payload[1:]), payload[0] == 1, nil
}

// Batch frame geometry. A batch header is the request id, the entry count,
// and (requests only) the frame's single kind — a frame never mixes k-mers
// and tiles, so hoisting the kind out of the entries saves a byte per id.
// Entries are variable-width: request ids travel as zigzag-varint deltas
// (the issuer sorts each frame, so consecutive 40-bit tile ids collapse to
// a few bytes each), responses as a single varint folding the exists bit
// into the count's low bit. The unikmer-style compaction ROADMAP item 2
// names; the machine model prices batches from the measured transport
// counters, not from a fixed entry width.
const (
	batchHdrBytes    = 6                     // reqID u32 + n u16
	batchReqHdrBytes = batchHdrBytes + 1     // + kind u8
	maxBatchEntries  = 1<<16 - 1             // n is a u16
	maxRespEntry     = 5                     // varint of a 33-bit value
	maxReqEntry      = binary.MaxVarintLen64 // varint of a zigzag 64-bit delta
)

// batchAnswer is one resolved lookup inside a batch response.
type batchAnswer struct {
	Count  uint32
	Exists bool
}

// zigzag maps a signed delta onto an unsigned varint-friendly value
// (small magnitudes of either sign encode short); unzigzag inverts it.
func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encodeBatchFrame builds one complete batch-request frame — the tag plus
// the payload for the assigned request id — in the shape the message
// plane's caller asks its encoder for.
func encodeBatchFrame(reqID uint32, kind byte, ids []kmer.ID) (msgplane.Tag, []byte) {
	return tagBatchReq, encodeBatchReq(reqID, kind, ids)
}

// encodeBatchReq builds a tagBatchReq payload: the shared kind in the
// header, then every id as the zigzag-varint delta from its predecessor
// (the first id deltas from zero). Any id order round-trips — an unsorted
// frame just pays wider varints — so issuers sort for compression, not for
// correctness.
func encodeBatchReq(reqID uint32, kind byte, ids []kmer.ID) []byte {
	buf := make([]byte, batchReqHdrBytes, batchReqHdrBytes+len(ids)*3)
	binary.LittleEndian.PutUint32(buf[0:4], reqID)
	binary.LittleEndian.PutUint16(buf[4:6], uint16(len(ids)))
	buf[6] = kind
	var entry [maxReqEntry]byte
	prev := uint64(0)
	for _, id := range ids {
		n := binary.PutUvarint(entry[:], zigzag(int64(uint64(id)-prev)))
		buf = append(buf, entry[:n]...)
		prev = uint64(id)
	}
	return buf
}

// decodeBatchReq parses a tagBatchReq payload. The delta arithmetic is
// wrapping, so every encoder output decodes to the exact input ids; a frame
// whose varints overrun or underrun the payload is rejected.
func decodeBatchReq(payload []byte) (reqID uint32, kind byte, ids []kmer.ID, err error) {
	if len(payload) < batchReqHdrBytes {
		return 0, 0, nil, fmt.Errorf("core: batch request of %d bytes", len(payload))
	}
	reqID = binary.LittleEndian.Uint32(payload[0:4])
	n := int(binary.LittleEndian.Uint16(payload[4:6]))
	kind = payload[6]
	rest := payload[batchReqHdrBytes:]
	ids = make([]kmer.ID, n)
	prev := uint64(0)
	for i := 0; i < n; i++ {
		u, w := binary.Uvarint(rest)
		if w <= 0 {
			return 0, 0, nil, fmt.Errorf("core: batch request id %d/%d truncated", i, n)
		}
		prev += uint64(unzigzag(u))
		ids[i] = kmer.ID(prev)
		rest = rest[w:]
	}
	if len(rest) != 0 {
		return 0, 0, nil, fmt.Errorf("core: batch request has %d trailing bytes after %d entries", len(rest), n)
	}
	return reqID, kind, ids, nil
}

// encodeBatchResp builds a tagBatchResp payload answering a batch request;
// answers are positional (answer i resolves id i of the request). Each
// answer is one varint of count<<1|exists — a miss (the dominant answer,
// Section IV) is a single zero byte instead of five.
func encodeBatchResp(reqID uint32, answers []batchAnswer) []byte {
	buf := make([]byte, batchHdrBytes, batchHdrBytes+len(answers)*2)
	binary.LittleEndian.PutUint32(buf[0:4], reqID)
	binary.LittleEndian.PutUint16(buf[4:6], uint16(len(answers)))
	var entry [maxRespEntry]byte
	for _, a := range answers {
		v := uint64(a.Count) << 1
		if a.Exists {
			v |= 1
		}
		n := binary.PutUvarint(entry[:], v)
		buf = append(buf, entry[:n]...)
	}
	return buf
}

// decodeBatchResp parses a tagBatchResp payload.
func decodeBatchResp(payload []byte) (reqID uint32, answers []batchAnswer, err error) {
	if len(payload) < batchHdrBytes {
		return 0, nil, fmt.Errorf("core: batch response of %d bytes", len(payload))
	}
	reqID = binary.LittleEndian.Uint32(payload[0:4])
	n := int(binary.LittleEndian.Uint16(payload[4:6]))
	rest := payload[batchHdrBytes:]
	answers = make([]batchAnswer, n)
	for i := 0; i < n; i++ {
		v, w := binary.Uvarint(rest)
		if w <= 0 {
			return 0, nil, fmt.Errorf("core: batch response answer %d/%d truncated", i, n)
		}
		if v>>1 > 1<<32-1 {
			return 0, nil, fmt.Errorf("core: batch response count %d overflows u32", v>>1)
		}
		answers[i] = batchAnswer{Count: uint32(v >> 1), Exists: v&1 == 1}
		rest = rest[w:]
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("core: batch response has %d trailing bytes after %d entries", len(rest), n)
	}
	return reqID, answers, nil
}

// appendSpecEntry appends one spectrum-exchange entry to a round slab: the
// id as the zigzag-varint delta from the slab's previous id, then the count
// as a plain varint. The build encodes per destination out of sorted shard
// segments, so the stream is only piecewise ascending — the delta arithmetic
// wraps, so any order round-trips exactly; out-of-order segment boundaries
// just pay wider varints. Returns the grown slab and the new predecessor.
//
// reptile-lint:hotpath
func appendSpecEntry(dst []byte, prev uint64, id kmer.ID, count uint32) ([]byte, uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], zigzag(int64(uint64(id)-prev)))
	dst = append(dst, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(count))
	return append(dst, tmp[:n]...), uint64(id)
}

// decodeSpecEntries walks one slab built by appendSpecEntry, handing each
// (id, count) to fn. Decoding streams straight into the callback — no
// intermediate entry slice — so the merge adds into the owned shards with
// zero per-round allocation. A slab whose varints overrun the payload or
// whose count overflows u32 is rejected; an fn error aborts the walk
// unwrapped.
func decodeSpecEntries(b []byte, fn func(id kmer.ID, count uint32) error) error {
	prev := uint64(0)
	for i := 0; len(b) > 0; i++ {
		u, w := binary.Uvarint(b)
		if w <= 0 {
			return fmt.Errorf("core: spectrum slab entry %d: truncated id", i)
		}
		b = b[w:]
		prev += uint64(unzigzag(u))
		c, w := binary.Uvarint(b)
		if w <= 0 {
			return fmt.Errorf("core: spectrum slab entry %d: truncated count", i)
		}
		if c > 1<<32-1 {
			return fmt.Errorf("core: spectrum slab entry %d: count %d overflows u32", i, c)
		}
		b = b[w:]
		if err := fn(kmer.ID(prev), uint32(c)); err != nil {
			return err
		}
	}
	return nil
}

// Recovery frame geometry.
const (
	stealReqBytes       = 4 // reqID u32
	stealGrantHdrBytes  = 5 // reqID u32 + granted u8; chunk u32 + reads follow when granted
	stealReturnHdrBytes = 4 // chunk u32; corrected reads batch follows
	replPushHdrBytes    = 9 // reqID u32 + owner u32 + kind u8; slab image follows
	replAckBytes        = 4 // reqID u32
)

// encodeStealReqFrame builds one steal request in the caller's encoder
// shape: the thief asks the victim for one chunk of its remaining reads.
func encodeStealReqFrame(reqID uint32) (msgplane.Tag, []byte) {
	buf := make([]byte, stealReqBytes)
	binary.LittleEndian.PutUint32(buf, reqID)
	return tagStealReq, buf
}

// decodeStealReq parses a tagStealReq payload.
func decodeStealReq(payload []byte) (reqID uint32, err error) {
	if len(payload) != stealReqBytes {
		return 0, fmt.Errorf("core: steal request of %d bytes", len(payload))
	}
	return binary.LittleEndian.Uint32(payload), nil
}

// encodeStealGrant builds a tagStealGrant payload: granted=false answers
// "my queue is empty", granted=true carries the chunk id (the chunk's start
// index in the victim's read order, which is also how the corrected reads
// find their way back to the right slots) and the chunk's reads.
func encodeStealGrant(reqID uint32, chunk uint32, rs []reads.Read, granted bool) []byte {
	buf := make([]byte, stealGrantHdrBytes)
	binary.LittleEndian.PutUint32(buf[0:4], reqID)
	if !granted {
		return buf
	}
	buf[4] = 1
	var c [4]byte
	binary.LittleEndian.PutUint32(c[:], chunk)
	buf = append(buf, c[:]...)
	return append(buf, reads.EncodeBatch(rs)...)
}

// decodeStealGrant parses a tagStealGrant payload.
func decodeStealGrant(payload []byte) (reqID uint32, chunk uint32, rs []reads.Read, granted bool, err error) {
	if len(payload) < stealGrantHdrBytes {
		return 0, 0, nil, false, fmt.Errorf("core: steal grant of %d bytes", len(payload))
	}
	reqID = binary.LittleEndian.Uint32(payload[0:4])
	if payload[4] == 0 {
		return reqID, 0, nil, false, nil
	}
	if len(payload) < stealGrantHdrBytes+4 {
		return 0, 0, nil, false, fmt.Errorf("core: granted steal grant of %d bytes", len(payload))
	}
	chunk = binary.LittleEndian.Uint32(payload[5:9])
	rs, err = reads.DecodeBatch(payload[9:])
	if err != nil {
		return 0, 0, nil, false, err
	}
	return reqID, chunk, rs, true, nil
}

// encodeStealReturn builds a tagStealReturn payload: the corrected chunk
// travels home keyed by its chunk id, so the victim writes it back into the
// exact slots it was granted from — the write-back by chunk id that keeps
// stolen output deterministic.
func encodeStealReturn(chunk uint32, rs []reads.Read) []byte {
	buf := make([]byte, stealReturnHdrBytes)
	binary.LittleEndian.PutUint32(buf, chunk)
	return append(buf, reads.EncodeBatch(rs)...)
}

// decodeStealReturn parses a tagStealReturn payload.
func decodeStealReturn(payload []byte) (chunk uint32, rs []reads.Read, err error) {
	if len(payload) < stealReturnHdrBytes {
		return 0, nil, fmt.Errorf("core: steal return of %d bytes", len(payload))
	}
	chunk = binary.LittleEndian.Uint32(payload[0:4])
	rs, err = reads.DecodeBatch(payload[4:])
	if err != nil {
		return 0, nil, err
	}
	return chunk, rs, nil
}

// encodeReplPushFrame builds one replica push in the caller's encoder
// shape: the slab image of the dead rank `owner`'s spectrum of `kind`,
// streamed to the new successor to restore R=2.
func encodeReplPushFrame(reqID uint32, owner int, kind byte, slab []byte) (msgplane.Tag, []byte) {
	buf := make([]byte, replPushHdrBytes, replPushHdrBytes+len(slab))
	binary.LittleEndian.PutUint32(buf[0:4], reqID)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(owner))
	buf[8] = kind
	return tagReplPush, append(buf, slab...)
}

// decodeReplPush parses a tagReplPush payload. The slab bytes alias the
// payload; the spectrum importer copies them into its own slabs.
func decodeReplPush(payload []byte) (reqID uint32, owner int, kind byte, slab []byte, err error) {
	if len(payload) < replPushHdrBytes {
		return 0, 0, 0, nil, fmt.Errorf("core: replica push of %d bytes", len(payload))
	}
	reqID = binary.LittleEndian.Uint32(payload[0:4])
	owner = int(int32(binary.LittleEndian.Uint32(payload[4:8])))
	return reqID, owner, payload[8], payload[replPushHdrBytes:], nil
}

// encodeReplAck builds a tagReplAck payload confirming one replica push.
func encodeReplAck(reqID uint32) []byte {
	buf := make([]byte, replAckBytes)
	binary.LittleEndian.PutUint32(buf, reqID)
	return buf
}

// decodeReplAck parses a tagReplAck payload.
func decodeReplAck(payload []byte) (reqID uint32, err error) {
	if len(payload) != replAckBytes {
		return 0, fmt.Errorf("core: replica ack of %d bytes", len(payload))
	}
	return binary.LittleEndian.Uint32(payload), nil
}

// encodeAbortInfo serializes an abort record:
// cause kind | origin rank uint32 | phase len uint16 | phase | cause text.
func encodeAbortInfo(a *AbortError) []byte {
	kind := kindAbortApp
	switch {
	case errors.Is(a.err, transport.ErrPeerDown):
		kind = kindAbortPeerDown
	case errors.Is(a.err, transport.ErrCorruptFrame):
		kind = kindAbortCorrupt
	}
	phase := []byte(a.Phase)
	buf := make([]byte, 7, 7+len(phase)+len(a.Cause))
	buf[0] = kind
	binary.LittleEndian.PutUint32(buf[1:5], uint32(a.Rank))
	binary.LittleEndian.PutUint16(buf[5:7], uint16(len(phase)))
	buf = append(buf, phase...)
	buf = append(buf, a.Cause...)
	return buf
}

// decodeAbortInfo parses an abort record back into the origin's AbortError,
// restoring the transport sentinel the cause kind names.
func decodeAbortInfo(payload []byte) (*AbortError, error) {
	if len(payload) < 7 {
		return nil, fmt.Errorf("core: abort record of %d bytes", len(payload))
	}
	var sentinel error
	switch payload[0] {
	case kindAbortApp:
	case kindAbortPeerDown:
		sentinel = transport.ErrPeerDown
	case kindAbortCorrupt:
		sentinel = transport.ErrCorruptFrame
	default:
		return nil, fmt.Errorf("core: abort cause kind %d", payload[0])
	}
	rank := int(int32(binary.LittleEndian.Uint32(payload[1:5])))
	plen := int(binary.LittleEndian.Uint16(payload[5:7]))
	if len(payload) < 7+plen {
		return nil, fmt.Errorf("core: abort record phase overruns payload")
	}
	return &AbortError{
		Rank:  rank,
		Phase: string(payload[7 : 7+plen]),
		Cause: string(payload[7+plen:]),
		err:   sentinel,
	}, nil
}
