package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
)

// intactPrefix is the reference decoder for one segment: the records of
// its leading run of whole frames with in-range lengths and matching
// CRCs, and the offset where that run ends.
func intactPrefix(seg []byte) ([][]byte, int) {
	var recs [][]byte
	off := 0
	for len(seg)-off >= frameHeader {
		n := int(binary.LittleEndian.Uint32(seg[off:]))
		end := off + frameHeader + n
		if n > MaxRecordBytes || end > len(seg) {
			break
		}
		payload := seg[off+frameHeader : end]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(seg[off+4:]) {
			break
		}
		recs = append(recs, payload)
		off = end
	}
	return recs, off
}

// frame encodes records the way Append writes them.
func frame(recs ...string) []byte {
	var b []byte
	for _, r := range recs {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r)))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum([]byte(r), castagnoli))
		b = append(b, r...)
	}
	return b
}

// FuzzJournalReplay writes arbitrary bytes as the only segment of a
// journal. Replay must never panic, must deliver exactly the segment's
// intact leading records and stop at the first torn or corrupt frame,
// and must leave the journal so that the next replay is clean and an
// append after it is read back.
func FuzzJournalReplay(f *testing.F) {
	whole := frame("create j1", "start j1", `{"op":"finish","id":"j1"}`)
	f.Add(whole)
	f.Add(whole[:len(whole)-3])
	f.Add(append(frame("a"), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0))
	flipped := bytes.Clone(whole)
	flipped[frameHeader+2] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segPrefix+"00000001"+segSuffix), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(dir, Options{Sync: durable.PolicyOff})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		var got [][]byte
		st, err := j.Replay(func(p []byte) error {
			got = append(got, bytes.Clone(p))
			return nil
		})
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		want, end := intactPrefix(seg)
		if len(got) != len(want) || st.Records != len(want) {
			t.Fatalf("replay delivered %d records (stats %d), want the %d intact ones", len(got), st.Records, len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
			}
		}
		damaged := st.TornTail || st.Quarantined > 0
		if damaged != (end != len(seg)) {
			t.Fatalf("intact prefix ends at %d of %d bytes, but stats say %+v", end, len(seg), st)
		}

		// The torn tail was truncated or the segment quarantined, so a
		// second replay is clean, and an append lands after what survived.
		if err := j.Append([]byte("after")); err != nil {
			t.Fatal(err)
		}
		survivors := len(want)
		if st.Quarantined > 0 {
			survivors = 0
		}
		var again int
		var last []byte
		st2, err := j.Replay(func(p []byte) error {
			again++
			last = bytes.Clone(p)
			return nil
		})
		if err != nil || st2.TornTail || st2.Quarantined > 0 {
			t.Fatalf("second replay: %+v, %v", st2, err)
		}
		if again != survivors+1 || string(last) != "after" {
			t.Fatalf("second replay read %d records ending %q, want %d ending \"after\"", again, last, survivors+1)
		}
	})
}
