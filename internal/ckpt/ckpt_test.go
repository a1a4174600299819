package ckpt

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	payload := []byte("hello checkpoint world")
	blob := Encode("engine-run", payload)
	kind, got, err := Decode(blob)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if kind != "engine-run" || !bytes.Equal(got, payload) {
		t.Fatalf("round trip mismatch: kind=%q payload=%q", kind, got)
	}
	// Empty payload and empty kind are legal.
	kind, got, err = Decode(Encode("", nil))
	if err != nil || kind != "" || len(got) != 0 {
		t.Fatalf("empty round trip: kind=%q payload=%q err=%v", kind, got, err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	blob := Encode("k", []byte("payload bytes"))
	// Flip one bit anywhere: digest check must fail.
	for _, i := range []int{0, len(magic) + 1, len(blob) / 2, len(blob) - 1} {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x40
		if _, _, err := Decode(bad); err == nil {
			t.Fatalf("Decode accepted corrupted byte at %d", i)
		}
	}
	// Truncation must fail.
	for _, n := range []int{0, 4, len(blob) - 1} {
		if _, _, err := Decode(blob[:n]); err == nil {
			t.Fatalf("Decode accepted truncation to %d bytes", n)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a := Encode("kind", []byte{1, 2, 3})
	b := Encode("kind", []byte{1, 2, 3})
	if !bytes.Equal(a, b) {
		t.Fatal("Encode is not deterministic")
	}
}

func TestStoreWriteAndLatestValid(t *testing.T) {
	s, err := NewStore(t.TempDir(), "run")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := s.LatestValid("engine-run"); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	for seq, body := range []string{"round-10", "round-20", "round-30"} {
		if _, err := s.Write(uint64(seq), "engine-run", []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	seq, pay, ok, err := s.LatestValid("engine-run")
	if err != nil || !ok || seq != 2 || string(pay) != "round-30" {
		t.Fatalf("LatestValid = %d %q %v %v", seq, pay, ok, err)
	}
	next, err := s.NextSeq()
	if err != nil || next != 3 {
		t.Fatalf("NextSeq = %d %v", next, err)
	}
}

func TestStoreSkipsCorruptTail(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, "run")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(0, "engine-run", []byte("good")); err != nil {
		t.Fatal(err)
	}
	last, err := s.Write(1, "engine-run", []byte("torn"))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest checkpoint in place (simulated torn write).
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	seq, pay, ok, err := s.LatestValid("engine-run")
	if err != nil || !ok || seq != 0 || string(pay) != "good" {
		t.Fatalf("LatestValid after corruption = %d %q %v %v", seq, pay, ok, err)
	}
	// NextSeq still counts the corrupt file's sequence number, so a new
	// checkpoint never collides with the torn one.
	next, err := s.NextSeq()
	if err != nil || next != 2 {
		t.Fatalf("NextSeq = %d %v", next, err)
	}
}

func TestStoreIgnoresWrongKindAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, "run")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(0, "engine-run", []byte("mine")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(1, "certify", []byte("other-kind")); err != nil {
		t.Fatal(err)
	}
	// Foreign files in the directory are ignored by the scan.
	if err := os.WriteFile(filepath.Join(dir, "result.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "run-notanumber-xx.ck"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	seq, pay, ok, err := s.LatestValid("engine-run")
	if err != nil || !ok || seq != 0 || string(pay) != "mine" {
		t.Fatalf("LatestValid = %d %q %v %v", seq, pay, ok, err)
	}
}

func TestStoreFilenameIsContentAddressed(t *testing.T) {
	s, err := NewStore(t.TempDir(), "run")
	if err != nil {
		t.Fatal(err)
	}
	path, err := s.Write(7, "k", []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Base(path)
	wantHash := Sum(Encode("k", []byte("abc")))
	if !strings.HasPrefix(base, "run-00000007-") || !strings.Contains(base, wantHash) {
		t.Fatalf("filename %q missing seq/hash (want hash %s)", base, wantHash)
	}
}

// engineSeed is a real engine checkpoint, kept under its store name:
// round 16 of `localsim -algo flood -n 64 -rounds 48 -faults
// lossy:p=0.05 -checkpoint <dir> -checkpoint-every 16`.
const engineSeed = "testdata/localsim-00000016-c1a551b0d90f.ck"

// FuzzDecode: Decode never panics on arbitrary bytes; a blob it
// accepts re-encodes to identical bytes; and the single-pass file name
// Store.Write uses equals Sum of the blob. The seeds are a real engine
// snapshot, truncated and bit-flipped copies of it, and a container
// with a padded length.
func FuzzDecode(f *testing.F) {
	blob, err := os.ReadFile(engineSeed)
	if err != nil {
		f.Fatal(err)
	}
	if !strings.Contains(engineSeed, Sum(blob)) {
		f.Fatalf("seed %s hashes to %s", engineSeed, Sum(blob))
	}
	f.Add(blob)
	for _, cut := range []int{0, len(magic), len(magic) + 3, len(blob) / 2, len(blob) - digestLen, len(blob) - 1} {
		f.Add(blob[:cut])
	}
	for _, bit := range []int{3, 8*len(magic) + 1, 8 * (len(magic) + 2), 8 * len(blob) / 2, 8*len(blob) - 1} {
		flipped := bytes.Clone(blob)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}
	f.Add(paddedContainer())
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, err := Decode(data)
		if err != nil {
			return
		}
		again, sum := encode(kind, payload)
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted blob re-encodes differently:\n  in  %x\n  out %x", data, again)
		}
		if want := Sum(data); sum != want {
			t.Fatalf("single-pass name %s, Sum %s", sum, want)
		}
	})
}

// paddedContainer is Encode("k", "abc") with the kind length written
// as the two-byte uvarint 0x81 0x00, under a digest that matches.
func paddedContainer() []byte {
	b := append([]byte(magic), 0x81, 0x00, 'k', 3, 'a', 'b', 'c')
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// TestDecodeRejectsPaddedLength: a length uvarint with a trailing zero
// byte decodes to the same value as the minimal one, so accepting it
// would give one payload two containers and two store names.
func TestDecodeRejectsPaddedLength(t *testing.T) {
	if _, _, err := Decode(paddedContainer()); err == nil {
		t.Fatal("padded kind length accepted")
	}
}
