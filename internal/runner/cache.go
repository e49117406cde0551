package runner

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/durable"
)

// cacheSchema versions the on-disk entry format itself. Bump it when the
// entry framing or key derivation changes; every old entry then misses
// cleanly (the schema is part of the key, so old entries are not even
// read). Schema 1 was a JSON envelope; schema 2 is encodeEntry's frame.
const cacheSchema = 2

// DefaultCacheDir is where cmd/paperbench memoizes experiment results,
// relative to the working directory.
const DefaultCacheDir = "results/cache"

// QuarantineDirName is the subdirectory of the cache dir that corrupt
// entries are moved into for post-mortem inspection.
const QuarantineDirName = "quarantine"

// Cache is an on-disk memoization store for experiment results. Entries
// are CRC-framed files named by the hex key, written atomically (temp
// file + rename) so a crashed or concurrent run never leaves a torn
// entry. A nil *Cache is valid and always misses — the -nocache escape
// hatch.
//
// Corrupt or unreadable entries (a torn write from a crashed kernel, a
// truncated disk, manual editing) are not silently overwritten: load
// quarantines them into QuarantineDirName with a sidecar .reason file and
// logs why, so torn writes stay diagnosable while the run recomputes the
// cell cleanly.
type Cache struct {
	dir     string
	mkdir   sync.Once
	mkdirOK bool
	logf    func(format string, args ...any)

	hits        atomic.Uint64
	misses      atomic.Uint64
	quarantined atomic.Uint64
}

// Open returns a Cache rooted at dir. The directory is created lazily on
// the first store, so read-only usage never touches the filesystem.
func Open(dir string) *Cache { return &Cache{dir: dir} }

// SetLogf installs the cache's diagnostic logger (quarantine reasons and
// similar non-fatal conditions). Install before the cache is used; nil
// (the default) discards diagnostics.
func (c *Cache) SetLogf(logf func(format string, args ...any)) {
	if c != nil {
		c.logf = logf
	}
}

func (c *Cache) log(format string, args ...any) {
	if c != nil && c.logf != nil {
		c.logf(format, args...)
	}
}

// Stats returns the cache's hit/miss counts for this process. A miss
// is a successfully computed (and therefore stored or storable) cell —
// failed or canceled computations count neither, so misses across a
// fleet sum to exactly the number of cells computed.
func (c *Cache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Quarantined returns how many corrupt entries this process moved to the
// quarantine directory.
func (c *Cache) Quarantined() uint64 {
	if c == nil {
		return 0
	}
	return c.quarantined.Load()
}

// Key derives the stable cache key for an experiment cell: a SHA-256 over
// the cache schema, the code version, the experiment slug, and the
// canonical JSON encoding of payload (the experiment's Params — scale,
// seed, everything that changes the result). encoding/json writes struct
// fields in declaration order and map keys sorted, so the encoding — and
// therefore the key — is deterministic across runs. DESIGN.md documents
// the scheme.
func Key(slug string, payload any) (string, error) {
	enc, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("runner: encoding cache key payload for %q: %w", slug, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "schema=%d\x00code=%s\x00slug=%s\x00", cacheSchema, CodeVersion(), slug)
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// codeVersion is resolved once from build info: the VCS revision (plus a
// dirty marker) when Go stamped one, else "unversioned-" plus a digest of
// the running executable itself. Results computed by different code
// versions therefore never collide — including unversioned builds (go run,
// test binaries, builds outside a VCS checkout), which previously all
// shared the literal key "unversioned" and could replay stale results
// across code changes. Only if the binary cannot even be re-read does the
// version degrade to the bare literal, where -nocache remains the escape
// hatch.
var codeVersionOnce = sync.OnceValue(func() string {
	bi, _ := debug.ReadBuildInfo()
	return codeVersionFrom(bi, executableDigest)
})

// codeVersionFrom derives the code-version string from build info, falling
// back to digest (the running binary's content hash) when no VCS revision
// was stamped. Split from codeVersionOnce so tests can exercise every
// fallback branch.
func codeVersionFrom(bi *debug.BuildInfo, digest func() (string, bool)) string {
	if bi != nil {
		rev, modified := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + modified
		}
	}
	if d, ok := digest(); ok {
		return "unversioned-" + d
	}
	return "unversioned"
}

// executableDigest hashes the running binary, so two different unversioned
// builds (different code states) get different cache keys.
func executableDigest() (string, bool) {
	exe, err := os.Executable()
	if err != nil {
		return "", false
	}
	return fileDigest(exe)
}

// fileDigest returns a short hex SHA-256 of the file's contents.
func fileDigest(path string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", false
	}
	return hex.EncodeToString(h.Sum(nil))[:16], true
}

// CodeVersion returns the code-version component of cache keys.
func CodeVersion() string { return codeVersionOnce() }

// An entry file (schema 2) is the payload framed for torn-write and
// bit-rot detection, in the CRC-framing idiom of internal/journal:
//
//	"MCTM" | u16 schema | u16 slug length | slug | u64 payload length | payload | u32 CRC32-C
//
// Integers are little-endian and the CRC covers every byte before it.
// The payload is stored verbatim, so neither a store nor a load scans
// or re-encodes it: a load is one read, one CRC pass and a slice.
const (
	entryMagic   = "MCTM"
	entryFixed   = len(entryMagic) + 2 + 2 // magic, schema, slug length
	entryTrailer = 4
	// entryExt names entry files (schema-1 entries were .json).
	entryExt = ".memo"
)

// castagnoli is the entry CRC's polynomial (hardware-accelerated on the
// platforms this runs on).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeEntry frames payload under slug at the current schema. The slug
// must fit its u16 length field; store checks that.
func encodeEntry(slug string, payload []byte) []byte {
	b := make([]byte, 0, entryFixed+len(slug)+8+len(payload)+entryTrailer)
	b = append(b, entryMagic...)
	b = binary.LittleEndian.AppendUint16(b, cacheSchema)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(slug)))
	b = append(b, slug...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// decodeEntry unframes an entry file read for slug and returns its
// payload, a subslice of data. On a miss, payload is nil and corrupt is
// either empty — another schema, the documented migration path, a clean
// miss — or names the damage (a torn or foreign file, a CRC mismatch,
// a slug mismatch) for the caller to quarantine.
func decodeEntry(data []byte, slug string) (payload []byte, corrupt string) {
	if len(data) < entryFixed || string(data[:len(entryMagic)]) != entryMagic {
		return nil, "not a memo entry: bad magic or torn header"
	}
	if binary.LittleEndian.Uint16(data[len(entryMagic):]) != cacheSchema {
		return nil, ""
	}
	off := entryFixed + int(binary.LittleEndian.Uint16(data[len(entryMagic)+2:]))
	if len(data) < off+8+entryTrailer {
		return nil, fmt.Sprintf("torn entry: %d bytes end inside the header", len(data))
	}
	body := len(data) - entryTrailer
	if n := binary.LittleEndian.Uint64(data[off:]); n != uint64(body-off-8) {
		return nil, fmt.Sprintf("torn entry: header declares a %d-byte payload, file holds %d", n, body-off-8)
	}
	if crc32.Checksum(data[:body], castagnoli) != binary.LittleEndian.Uint32(data[body:]) {
		return nil, "CRC mismatch"
	}
	if got := string(data[entryFixed:off]); got != slug {
		return nil, fmt.Sprintf("slug mismatch: entry says %q, lookup wants %q", got, slug)
	}
	return data[off+8 : body], ""
}

// path maps a key to its file.
func (c *Cache) path(key string) string { return filepath.Join(c.dir, key+entryExt) }

// quarantine moves a corrupt entry into the quarantine subdirectory with
// a sidecar .reason file instead of leaving it in place to be silently
// overwritten. Never fatal: on any filesystem error the entry is left
// where it is and only the log records the problem.
func (c *Cache) quarantine(key, reason string) {
	c.quarantined.Add(1)
	qdir := filepath.Join(c.dir, QuarantineDirName)
	dst := filepath.Join(qdir, key+entryExt)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		c.log("runner: cache entry %s is corrupt (%s) but quarantine dir failed: %v", key, reason, err)
		return
	}
	if err := os.Rename(c.path(key), dst); err != nil {
		c.log("runner: cache entry %s is corrupt (%s) but quarantine move failed: %v", key, reason, err)
		return
	}
	// Best-effort sidecar: the move above already preserved the evidence.
	_ = os.WriteFile(dst+".reason", []byte(reason+"\n"), 0o644)
	c.log("runner: quarantined corrupt cache entry %s: %s", key, reason)
}

// load reads a cached payload; ok is false on miss or any corruption.
// Corruption (unreadable file, torn or CRC-failing frame, impossible
// slug mismatch) is quarantined for diagnosis and then treated as a
// miss, never fatal. A schema mismatch is a clean miss: it is the
// documented format-migration path, not a torn write.
func (c *Cache) load(slug, key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		if !os.IsNotExist(err) {
			c.quarantine(key, fmt.Sprintf("unreadable: %v", err))
		}
		return nil, false
	}
	payload, corrupt := decodeEntry(data, slug)
	if corrupt != "" {
		c.quarantine(key, corrupt)
	}
	return payload, payload != nil
}

// store writes a payload atomically. Store failures are returned so the
// caller can warn, but callers treat them as non-fatal: the computation
// already succeeded.
func (c *Cache) store(slug, key string, payload []byte) error {
	if c == nil {
		return nil
	}
	if len(slug) > math.MaxUint16 {
		return fmt.Errorf("runner: cache slug of %d bytes exceeds the entry header", len(slug))
	}
	c.mkdir.Do(func() { c.mkdirOK = os.MkdirAll(c.dir, 0o755) == nil })
	if !c.mkdirOK {
		return fmt.Errorf("runner: cannot create cache dir %s", c.dir)
	}
	// Same temp+rename discipline as before, now fsyncing file and
	// directory when the process-wide sync policy demands power-loss
	// durability (a torn cache entry is only quarantine noise, but a
	// memoized result the checkpoint already references must not
	// evaporate after the checkpoint said it exists).
	if err := durable.WriteFileAtomic(c.path(key), encodeEntry(slug, payload), 0o644, writeSyncPolicy()); err != nil {
		return fmt.Errorf("runner: committing cache entry %s: %w", slug, err)
	}
	return nil
}

// LoadRaw reads the cached payload for a key already derived with Key.
// A hit counts toward Stats; a miss counts nothing — the caller decides
// whether a computation follows (the cluster layer peeks without
// committing to compute, and a forwarded cell must not inflate this
// node's miss count). Corruption handling matches load.
func (c *Cache) LoadRaw(slug, key string) ([]byte, bool) {
	raw, ok := c.load(slug, key)
	if ok {
		c.hits.Add(1)
	}
	return raw, ok
}

// StoreRaw writes a payload under a pre-derived key — the cross-node
// cache-fill path: a cell computed by a remote owner is written through
// to the local cache so later lookups replay as local hits. Counts
// neither hit nor miss (the work happened elsewhere).
func (c *Cache) StoreRaw(slug, key string, raw []byte) error {
	return c.store(slug, key, raw)
}

// Memo returns the cached result for (slug, payload) if present, else runs
// compute, stores its result, and returns it. hit reports whether the
// value came from disk. The entry's payload is the result's JSON
// encoding, so Memo and MemoBytes callers of one slug share entries.
//
// The returned value is ALWAYS the JSON round-trip of the computed one —
// even on a cache miss — so a run that populates the cache and a run that
// hits it produce bit-identical output. A result type that loses
// information through JSON (an unexported field, say) therefore shows up
// immediately in golden tests instead of only on the second invocation.
func Memo[T any](c *Cache, slug string, payload any, compute func() (T, error)) (v T, hit bool, err error) {
	key, err := Key(slug, payload)
	if err != nil {
		return v, false, err
	}
	if raw, ok := c.load(slug, key); ok {
		if json.Unmarshal(raw, &v) == nil {
			c.hits.Add(1)
			return v, true, nil
		}
		// Undecodable result (type changed without a code-version bump):
		// quarantine the evidence, then fall through and recompute.
		c.quarantine(key, fmt.Sprintf("result does not decode into the current %s result type", slug))
	}
	computed, err := compute()
	if err != nil {
		return v, false, err
	}
	c.countMiss()
	raw, err := json.Marshal(computed)
	if err != nil {
		return v, false, fmt.Errorf("runner: encoding result %s: %w", slug, err)
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return v, false, fmt.Errorf("runner: round-tripping result %s: %w", slug, err)
	}
	// Non-fatal: the result is correct, only the memoization is lost.
	_ = c.store(slug, key, raw)
	return v, false, nil
}

// MemoBytes is Memo for a result that is already bytes: compute's bytes
// are stored verbatim and a hit returns the stored bytes verbatim, with
// no encoding on either path, so cold and warm callers see identical
// bytes by construction. Hit and miss accounting match Memo's.
func MemoBytes(c *Cache, slug string, payload any, compute func() ([]byte, error)) ([]byte, bool, error) {
	key, err := Key(slug, payload)
	if err != nil {
		return nil, false, err
	}
	if raw, ok := c.LoadRaw(slug, key); ok {
		return raw, true, nil
	}
	raw, err := compute()
	if err != nil {
		return nil, false, err
	}
	c.countMiss()
	// Non-fatal, as in Memo.
	_ = c.store(slug, key, raw)
	return raw, false, nil
}

// countMiss records one computed cell. A miss counts only once compute
// succeeds, making misses mean "cells this process actually computed":
// a canceled or failed attempt whose retry recomputes must not count
// the cell twice — the fleet-wide zero-duplicate accounting (sum of
// misses across nodes == cells computed) depends on this.
func (c *Cache) countMiss() {
	if c != nil {
		c.misses.Add(1)
	}
}
