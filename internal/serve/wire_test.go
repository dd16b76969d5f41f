package serve

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

// TestReadFrameClaimedLengthNotPreallocated: a header announcing a maximum
// frame followed by a hang-up must cost one read step, not the claimed
// 256 MiB, and must report the torn frame.
func TestReadFrameClaimedLengthNotPreallocated(t *testing.T) {
	hdr := make([]byte, frameHdrBytes)
	hdr[0] = opChunk
	binary.LittleEndian.PutUint32(hdr[1:], maxFrameBytes)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("readFrame = %v, want the torn-frame error", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2<<20 {
		t.Errorf("readFrame allocated %d bytes for a header-only frame, want < 2 MiB", alloc)
	}
}

// TestReadFrameRoundTrip: frames of every size class, including ones
// spanning several read steps, come back exactly as written.
func TestReadFrameRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, frameStepBytes - 1, frameStepBytes, 3*frameStepBytes + 17} {
		payload := bytes.Repeat([]byte{0xa5}, n)
		var buf bytes.Buffer
		if err := writeFrame(&buf, opChunkOK, payload); err != nil {
			t.Fatal(err)
		}
		op, got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if op != opChunkOK || !bytes.Equal(got, payload) {
			t.Errorf("n=%d: frame changed in transit", n)
		}
	}
}

// FuzzServeReadFrame: readFrame must never panic on arbitrary bytes, and a
// frame it accepts must re-encode to exactly the bytes it consumed.
func FuzzServeReadFrame(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{opClose, 0, 0, 0, 0},
		{opOpen, 3, 0, 0, 0, 'a', 'b', 'c'},
		{opChunk, 9, 0, 0, 0, 1},
		{opChunk, 0xff, 0xff, 0xff, 0xff},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		op, payload, err := readFrame(r)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, op, payload); err != nil {
			t.Fatal(err)
		}
		consumed := data[:len(data)-r.Len()]
		if !bytes.Equal(buf.Bytes(), consumed) {
			t.Fatalf("re-encoded %x, consumed %x", buf.Bytes(), consumed)
		}
	})
}
