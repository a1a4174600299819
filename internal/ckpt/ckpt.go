// Package ckpt is the durable checkpoint substrate of the repo: a
// content-addressed container format plus a sequence-numbered on-disk
// store, shared by the round engine's run snapshots (model.Snapshot),
// the lower-bound certifier's catalogue snapshots
// (core.CertifySnapshot) and the job subsystem's result files.
//
// Container. Every checkpoint is one self-verifying byte blob:
//
//	magic "LACKPT1\n" | uvarint kind-len | kind | uvarint payload-len |
//	payload | sha256 of everything before the digest
//
// Decode re-hashes and refuses blobs whose digest does not match, so a
// torn write, a truncated file or a flipped bit is detected — never
// silently resumed from. The digest also names the file on disk
// (content addressing): two runs checkpointing identical state write
// byte-identical files with identical names, which is what makes the
// snapshot-equality pins in the engine tests meaningful end to end.
//
// Store. A Store is a directory of "<prefix>-<seq>-<hash>.ck" files
// written atomically (temp file, fsync, rename). LatestValid scans
// from the highest sequence number down and returns the newest blob
// that still decodes — a corrupt or partial tail checkpoint is skipped
// back over, exactly the recovery the crash-recovery drills exercise.
package ckpt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// magic identifies a ckpt container (and its format version).
const magic = "LACKPT1\n"

// digestLen is the length of the sha256 trailer.
const digestLen = sha256.Size

// Encode wraps a payload in the self-verifying container.
func Encode(kind string, payload []byte) []byte {
	blob, _ := encode(kind, payload)
	return blob
}

// encode is Encode also returning Sum(blob) from the same hash pass:
// once the trailer digest is taken, the hash state that produced it
// is fed the digest too, which is the whole blob hashed, so the file
// name costs 32 more bytes of hashing instead of a second pass.
func encode(kind string, payload []byte) (blob []byte, sum string) {
	b := make([]byte, 0, len(magic)+2*binary.MaxVarintLen64+len(kind)+len(payload)+digestLen)
	b = append(b, magic...)
	b = binary.AppendUvarint(b, uint64(len(kind)))
	b = append(b, kind...)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	h := sha256.New()
	h.Write(b)
	b = h.Sum(b)
	h.Write(b[len(b)-digestLen:])
	var whole [digestLen]byte
	return b, shortSum(h.Sum(whole[:0]))
}

// Decode unwraps a container, verifying the magic and the digest. The
// returned payload aliases data.
func Decode(data []byte) (kind string, payload []byte, err error) {
	if len(data) < len(magic)+digestLen || string(data[:len(magic)]) != magic {
		return "", nil, fmt.Errorf("ckpt: not a checkpoint container")
	}
	body, digest := data[:len(data)-digestLen], data[len(data)-digestLen:]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(digest) {
		return "", nil, fmt.Errorf("ckpt: digest mismatch (corrupt or truncated checkpoint)")
	}
	rest := body[len(magic):]
	klen, n := uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < klen {
		return "", nil, fmt.Errorf("ckpt: malformed kind length")
	}
	kind, rest = string(rest[n:n+int(klen)]), rest[n+int(klen):]
	plen, n := uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) != plen {
		return "", nil, fmt.Errorf("ckpt: malformed payload length")
	}
	return kind, rest[n:], nil
}

// uvarint is binary.Uvarint refusing padded encodings (a final zero
// byte after a continuation byte): Encode writes minimal lengths only,
// so every container Decode accepts re-encodes to the same bytes and
// is stored under one name.
func uvarint(b []byte) (uint64, int) {
	x, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return x, n
}

// Sum returns the short content hash (first 12 hex digits of sha256)
// used in store filenames.
func Sum(data []byte) string {
	sum := sha256.Sum256(data)
	return shortSum(sum[:])
}

// shortSum renders a sha256 digest as a store-filename hash.
func shortSum(digest []byte) string { return hex.EncodeToString(digest[:6]) }

// Store is a directory of sequence-numbered, content-addressed
// checkpoint files. The zero Store is not usable; use NewStore.
type Store struct {
	dir    string
	prefix string
}

// NewStore opens (creating if needed) a checkpoint store rooted at
// dir, naming files "<prefix>-<seq>-<hash>.ck".
func NewStore(dir, prefix string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return &Store{dir: dir, prefix: prefix}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// name builds the content-addressed filename of a blob from its Sum.
func (s *Store) name(seq uint64, sum string) string {
	return fmt.Sprintf("%s-%08d-%s.ck", s.prefix, seq, sum)
}

// Write encodes the payload and persists it atomically under the next
// name: temp file in the same directory, fsync, rename. It returns the
// final path.
func (s *Store) Write(seq uint64, kind string, payload []byte) (string, error) {
	blob, sum := encode(kind, payload)
	final := filepath.Join(s.dir, s.name(seq, sum))
	tmp, err := os.CreateTemp(s.dir, ".tmp-"+s.prefix+"-*")
	if err != nil {
		return "", fmt.Errorf("ckpt: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return "", fmt.Errorf("ckpt: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", fmt.Errorf("ckpt: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return "", fmt.Errorf("ckpt: %w", err)
	}
	return final, nil
}

// Entry describes one file in the store.
type Entry struct {
	Seq  uint64
	Path string
}

// Entries lists the store's checkpoint files in increasing sequence
// order, without validating their contents. Files whose names do not
// parse are ignored.
func (s *Store) Entries() ([]Entry, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var out []Entry
	want := s.prefix + "-"
	for _, de := range des {
		name := de.Name()
		if !strings.HasPrefix(name, want) || !strings.HasSuffix(name, ".ck") {
			continue
		}
		mid := strings.TrimSuffix(name[len(want):], ".ck")
		seqStr, _, ok := strings.Cut(mid, "-")
		if !ok {
			continue
		}
		seq, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil {
			continue
		}
		out = append(out, Entry{Seq: seq, Path: filepath.Join(s.dir, name)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// LatestValid scans from the highest sequence number down and returns
// the newest checkpoint that decodes with a matching digest, skipping
// corrupt or truncated files (a torn final checkpoint falls back to
// the one before it). ok is false when no valid checkpoint exists.
func (s *Store) LatestValid(wantKind string) (seq uint64, payload []byte, ok bool, err error) {
	entries, err := s.Entries()
	if err != nil {
		return 0, nil, false, err
	}
	for i := len(entries) - 1; i >= 0; i-- {
		data, err := os.ReadFile(entries[i].Path)
		if err != nil {
			continue
		}
		kind, pay, derr := Decode(data)
		if derr != nil || kind != wantKind {
			continue
		}
		return entries[i].Seq, pay, true, nil
	}
	return 0, nil, false, nil
}

// NextSeq returns one past the highest sequence number present (0 for
// an empty store), so writers resume numbering across process
// restarts without overwriting older checkpoints.
func (s *Store) NextSeq() (uint64, error) {
	entries, err := s.Entries()
	if err != nil {
		return 0, err
	}
	if len(entries) == 0 {
		return 0, nil
	}
	return entries[len(entries)-1].Seq + 1, nil
}
