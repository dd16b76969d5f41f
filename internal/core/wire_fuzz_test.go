package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"reptile/internal/dna"
	"reptile/internal/kmer"
	"reptile/internal/reads"
	"reptile/internal/reptile"
	"reptile/internal/transport"
)

// The decode fuzz targets pin the wire layer's only safety contract: an
// arbitrary byte string either decodes into a self-consistent value or
// returns an error — never a panic, never an out-of-bounds read, and never
// a value that re-encodes to a different frame.

func FuzzDecodeBatchReq(f *testing.F) {
	// Golden frames: an empty batch, a single k-mer id, a mixed-width pair
	// of tile ids, and a deliberately truncated frame.
	f.Add(encodeBatchReq(0, kindKmer, nil))
	f.Add(encodeBatchReq(1, kindKmer, []kmer.ID{42}))
	f.Add(encodeBatchReq(7, kindTile, []kmer.ID{1, 1 << 60}))
	f.Add(encodeBatchReq(9, kindTile, []kmer.ID{5, 6, 7})[:8])
	f.Add(encodeBatchReq(11, kindKmer, []kmer.ID{1 << 62, 3, ^kmer.ID(0)}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		reqID, kind, ids, err := decodeBatchReq(payload)
		if err != nil {
			return
		}
		// Varints are canonical on encode but Uvarint tolerates padded
		// forms, so the invariant is semantic: whatever decodes must
		// re-encode to a frame that decodes to the same value.
		back := encodeBatchReq(reqID, kind, ids)
		reqID2, kind2, ids2, err := decodeBatchReq(back)
		if err != nil {
			t.Fatalf("re-encode does not decode: %v", err)
		}
		if reqID2 != reqID || kind2 != kind || len(ids2) != len(ids) {
			t.Fatalf("frame changed across round trip: id %d→%d kind %d→%d n %d→%d",
				reqID, reqID2, kind, kind2, len(ids), len(ids2))
		}
		for i := range ids {
			if ids2[i] != ids[i] {
				t.Fatalf("id %d changed across round trip: %d vs %d", i, ids2[i], ids[i])
			}
		}
		if len(back) > len(payload) {
			t.Fatalf("canonical re-encode is %d bytes, original frame %d", len(back), len(payload))
		}
	})
}

func FuzzDecodeBatchResp(f *testing.F) {
	f.Add(encodeBatchResp(0, nil))
	f.Add(encodeBatchResp(3, []batchAnswer{{Count: 9, Exists: true}}))
	f.Add(encodeBatchResp(8, []batchAnswer{{Count: 0, Exists: false}, {Count: 1 << 30, Exists: true}}))
	f.Add(encodeBatchResp(5, []batchAnswer{{Count: 2, Exists: true}})[:7])
	f.Fuzz(func(t *testing.T, payload []byte) {
		reqID, answers, err := decodeBatchResp(payload)
		if err != nil {
			return
		}
		back := encodeBatchResp(reqID, answers)
		// Encode emits canonical (minimal) varints but Uvarint tolerates
		// padded forms, so the canonical frame may be shorter — never
		// longer — than the fuzzed original.
		if len(back) > len(payload) {
			t.Fatalf("canonical re-encode is %d bytes, original frame %d", len(back), len(payload))
		}
		reqID2, answers2, err := decodeBatchResp(back)
		if err != nil || reqID2 != reqID || len(answers2) != len(answers) {
			t.Fatalf("canonical re-encode does not decode: %v", err)
		}
		for i := range answers {
			if answers2[i] != answers[i] {
				t.Fatalf("answer %d changed across round trip", i)
			}
		}
	})
}

// FuzzBatchReqDeltaCodec drives the zigzag-varint delta codec from the
// encode side: arbitrary id patterns (8 fuzzed bytes each) must survive
// encode → decode exactly. This is the losslessness half the decode target
// cannot pin — it only sees frames that already parsed — and it hammers the
// wrapping delta arithmetic with descending, alternating, and full-width id
// sequences no sorted issuer would produce.
func FuzzBatchReqDeltaCodec(f *testing.F) {
	pack := func(ids ...uint64) []byte {
		buf := make([]byte, 0, 8*len(ids))
		for _, id := range ids {
			buf = binary.LittleEndian.AppendUint64(buf, id)
		}
		return buf
	}
	f.Add(uint32(0), byte(kindKmer), pack())
	f.Add(uint32(1), byte(kindTile), pack(1, 2, 3))
	f.Add(uint32(7), byte(kindKmer), pack(1<<63, 0, ^uint64(0)))
	f.Add(uint32(9), byte(kindTile), pack(5, 5, 5))
	f.Fuzz(func(t *testing.T, reqID uint32, kind byte, raw []byte) {
		n := len(raw) / 8
		if n > maxBatchEntries {
			n = maxBatchEntries
		}
		ids := make([]kmer.ID, n)
		for i := range ids {
			ids[i] = kmer.ID(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		payload := encodeBatchReq(reqID, kind, ids)
		reqID2, kind2, ids2, err := decodeBatchReq(payload)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if reqID2 != reqID || kind2 != kind || len(ids2) != len(ids) {
			t.Fatalf("header changed: id %d→%d kind %d→%d n %d→%d", reqID, reqID2, kind, kind2, len(ids), len(ids2))
		}
		for i := range ids {
			if ids2[i] != ids[i] {
				t.Fatalf("id %d: sent %d, decoded %d", i, ids[i], ids2[i])
			}
		}
	})
}

// FuzzBatchRespVarintCodec is the encode-side twin for the response codec:
// arbitrary (count, exists) answer vectors (5 fuzzed bytes each) must
// survive encode → decode exactly, including the full u32 count range
// packed through count<<1|exists.
func FuzzBatchRespVarintCodec(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(3), []byte{0, 0, 0, 0, 0})
	f.Add(uint32(8), []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, reqID uint32, raw []byte) {
		n := len(raw) / 5
		if n > maxBatchEntries {
			n = maxBatchEntries
		}
		answers := make([]batchAnswer, n)
		for i := range answers {
			answers[i] = batchAnswer{
				Count:  binary.LittleEndian.Uint32(raw[5*i:]),
				Exists: raw[5*i+4]&1 == 1,
			}
		}
		payload := encodeBatchResp(reqID, answers)
		reqID2, answers2, err := decodeBatchResp(payload)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if reqID2 != reqID || len(answers2) != len(answers) {
			t.Fatalf("header changed: id %d→%d n %d→%d", reqID, reqID2, len(answers), len(answers2))
		}
		for i := range answers {
			if answers2[i] != answers[i] {
				t.Fatalf("answer %d: sent %+v, decoded %+v", i, answers[i], answers2[i])
			}
		}
	})
}

// FuzzSpecEntryCodec hits the spectrum round-exchange slab codec from both
// sides. The fuzzed bytes are read as (id u64, count u32) records and pushed
// through appendSpecEntry with one running predecessor — descending and
// full-width id patterns exercise the wrapping delta — then decodeSpecEntries
// must hand back exactly the input. The raw bytes are also fed to the decoder
// directly: an arbitrary slab either streams entries or errors, never panics.
func FuzzSpecEntryCodec(f *testing.F) {
	pack := func(pairs ...uint64) []byte {
		buf := make([]byte, 0, 12*len(pairs)/2)
		for i := 0; i+1 < len(pairs); i += 2 {
			buf = binary.LittleEndian.AppendUint64(buf, pairs[i])
			buf = binary.LittleEndian.AppendUint32(buf, uint32(pairs[i+1]))
		}
		return buf
	}
	f.Add(pack())
	f.Add(pack(1, 1, 2, 2, 3, 3))
	f.Add(pack(1<<63, 1, 0, 1<<32-1, ^uint64(0), 7))
	f.Add(pack(100, 2, 5, 2, 100, 2)) // descending segment boundary
	f.Fuzz(func(t *testing.T, raw []byte) {
		type rec struct {
			id    kmer.ID
			count uint32
		}
		n := len(raw) / 12
		want := make([]rec, n)
		var slab []byte
		prev := uint64(0)
		for i := range want {
			want[i] = rec{
				id:    kmer.ID(binary.LittleEndian.Uint64(raw[12*i:])),
				count: binary.LittleEndian.Uint32(raw[12*i+8:]),
			}
			slab, prev = appendSpecEntry(slab, prev, want[i].id, want[i].count)
		}
		var got []rec
		err := decodeSpecEntries(slab, func(id kmer.ID, count uint32) error {
			got = append(got, rec{id, count})
			return nil
		})
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d entries decoded, %d encoded", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("entry %d: sent %+v, decoded %+v", i, want[i], got[i])
			}
		}
		// Decoder safety on the raw fuzz bytes themselves.
		_ = decodeSpecEntries(raw, func(kmer.ID, uint32) error { return nil })
	})
}

func FuzzDecodeAbortInfo(f *testing.F) {
	for _, a := range []*AbortError{
		{Rank: 0, Phase: "read", Cause: "boom"},
		{Rank: 3, Phase: "correct", Cause: "peer 1 went away", err: transport.ErrPeerDown},
		{Rank: 1, Phase: "exchange", Cause: "", err: transport.ErrCorruptFrame},
		{Rank: -1, Phase: "spectrum", Cause: "x"},
	} {
		f.Add(encodeAbortInfo(a))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		a, err := decodeAbortInfo(payload)
		if err != nil {
			return
		}
		back := encodeAbortInfo(a)
		a2, err := decodeAbortInfo(back)
		if err != nil {
			t.Fatalf("re-encode does not decode: %v", err)
		}
		if a2.Rank != a.Rank || a2.Phase != a.Phase || a2.Cause != a.Cause {
			t.Fatalf("abort record changed across round trip: %+v vs %+v", a2, a)
		}
	})
}

func FuzzSessionWire(f *testing.F) {
	rs := []reads.Read{
		{Seq: 1, Base: []dna.Base{0, 1, 2, 3}, Qual: []byte{30, 31, 32, 33}},
		{Seq: 9, Base: []dna.Base{3}, Qual: []byte{2}},
	}
	res := reptile.Result{ReadsProcessed: 2, ReadsChanged: 1, BasesCorrected: 1, TilesSolid: 5, TilesRepaired: 1, TilesGivenUp: 0}
	_, open := encodeSessionOpenFrame(7, "tenant-a")
	_, chunk := encodeReadChunkFrame(8, 3, rs)
	_, closeFrame := encodeSessionCloseFrame(9, 3)
	for _, seed := range [][]byte{
		open,
		open[:len(open)-1],
		chunk,
		chunk[:len(chunk)-3],
		closeFrame,
		encodeSessionResp(8, sessOK, encodeCorrectedBody(res, rs)),
		encodeSessionResp(7, sessOK, encodeOpenOKBody(3)),
		encodeSessionResp(9, sessRejectCapacity, []byte("tenant cap full")),
		encodeCorrectedBody(res, nil),
		encodeOpenOKBody(1 << 31),
	} {
		f.Add(seed)
	}
	// Every session decoder sees the same bytes: each must either reject
	// them or decode a value whose canonical re-encoding is the input
	// itself, because every session frame has exactly one encoding.
	f.Fuzz(func(t *testing.T, payload []byte) {
		same := func(frame string, back []byte) {
			t.Helper()
			if !bytes.Equal(back, payload) {
				t.Fatalf("%s re-encodes to %x, decoded from %x", frame, back, payload)
			}
		}
		if reqID, tenant, err := decodeSessionOpen(payload); err == nil {
			_, back := encodeSessionOpenFrame(reqID, tenant)
			same("session open", back)
		}
		if reqID, session, rs, err := decodeReadChunk(payload); err == nil {
			_, back := encodeReadChunkFrame(reqID, session, rs)
			same("read chunk", back)
		}
		if reqID, session, err := decodeSessionClose(payload); err == nil {
			_, back := encodeSessionCloseFrame(reqID, session)
			same("session close", back)
		}
		if reqID, status, body, err := decodeSessionResp(payload); err == nil {
			same("session response", encodeSessionResp(reqID, status, body))
		}
		if res, rs, err := decodeCorrectedBody(payload); err == nil {
			same("corrected body", encodeCorrectedBody(res, rs))
		}
		if session, err := decodeOpenOKBody(payload); err == nil {
			same("open answer", encodeOpenOKBody(session))
		}
	})
}
