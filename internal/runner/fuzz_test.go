package runner

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// FuzzMemoEntry drives the memo entry decoder, which reads on-disk bytes
// that a crash, a full disk or a hand edit may have mangled. Arbitrary
// bytes stored as an entry must load as a hit or a miss, never a panic,
// and a hit only for exactly the bytes the encoder would write; any slug
// and payload must round-trip; and flipping any one bit of an encoded
// entry must never yield a hit.
func FuzzMemoEntry(f *testing.F) {
	// The last argument picks the bit to flip: 171 lands in the payload
	// of a 4-byte slug and 7-byte payload, 223 in its CRC trailer.
	f.Add([]byte("{torn"), "svc-classify", []byte("{\"records\":1}\nbody\n"), uint(0))
	f.Add(encodeEntry("fig2", []byte(`{"v":7}`)), "fig2", []byte(`{"v":7}`), uint(171))
	f.Add(encodeEntry("fig2", []byte(`{"v":7}`)), "fig3", []byte(`{"v":8}`), uint(223))
	f.Add([]byte("MCTM\x02\x00\xff\xff"), "", []byte(nil), uint(7))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, raw []byte, slug string, payload []byte, bit uint) {
		if len(slug) > math.MaxUint16 {
			return
		}
		c := Open(dir)
		key, err := Key(slug, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(c.path(key), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.LoadRaw(slug, key); ok && !bytes.Equal(encodeEntry(slug, got), raw) {
			t.Fatalf("hit on %d bytes the encoder would not write", len(raw))
		}

		if err := c.StoreRaw(slug, key, payload); err != nil {
			t.Fatal(err)
		}
		got, ok := c.LoadRaw(slug, key)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("round trip of a %d-byte payload under %q: hit %v, %d bytes back", len(payload), slug, ok, len(got))
		}

		enc := encodeEntry(slug, payload)
		i := bit % uint(len(enc)*8)
		enc[i/8] ^= 1 << (i % 8)
		if p, _ := decodeEntry(enc, slug); p != nil {
			t.Fatalf("bit %d flipped, entry still decodes", i)
		}
	})
}
