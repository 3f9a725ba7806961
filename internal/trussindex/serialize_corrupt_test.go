package trussindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
)

func put(buf *bytes.Buffer, x uint64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], x)
	buf.Write(b[:n])
}

// sealed returns buf's bytes followed by their CRC-32C trailer, so a crafted
// payload reaches the structural check it targets instead of failing the
// checksum.
func sealed(buf *bytes.Buffer) []byte {
	return binary.LittleEndian.AppendUint32(buf.Bytes(), crc32.Checksum(buf.Bytes(), castagnoli))
}

// expectCorrupt asserts that decoding fails with the typed ErrCorrupt
// sentinel (never a panic, never success).
func expectCorrupt(t *testing.T, raw []byte, what string) {
	t.Helper()
	ix, err := ReadFrom(bytes.NewReader(raw))
	if err == nil {
		t.Fatalf("%s: accepted (n=%d)", what, ix.Graph().N())
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: error %v does not wrap ErrCorrupt", what, err)
	}
}

func TestReadFromRejectsCorruptHeaders(t *testing.T) {
	// Huge n.
	var b1 bytes.Buffer
	b1.WriteString(formatV3)
	put(&b1, 1<<63)
	put(&b1, 3)
	expectCorrupt(t, sealed(&b1), "huge n")
	// maxTruss > n.
	var b2 bytes.Buffer
	b2.WriteString(formatV3)
	put(&b2, 4)
	put(&b2, 1<<31)
	expectCorrupt(t, sealed(&b2), "huge maxTruss")
	// m impossible for n.
	var b3 bytes.Buffer
	b3.WriteString(formatV3)
	put(&b3, 4) // n
	put(&b3, 2) // maxTruss
	put(&b3, 7) // m > 4*3/2
	expectCorrupt(t, sealed(&b3), "impossible edge count")
	// n=0 with a huge m: must be rejected, not wrap negative and skip the
	// consistency check.
	var b3b bytes.Buffer
	b3b.WriteString(formatV3)
	put(&b3b, 0)     // n
	put(&b3b, 0)     // maxTruss
	put(&b3b, 1<<63) // m
	expectCorrupt(t, sealed(&b3b), "n=0 with nonzero m")
	// Declared m disagreeing with the adjacency.
	var b4 bytes.Buffer
	b4.WriteString(formatV3)
	put(&b4, 2) // n
	put(&b4, 2) // maxTruss
	put(&b4, 0) // m: claims empty, adjacency below has one edge
	put(&b4, 1) // deg(0)
	put(&b4, 1) // neighbor 1
	put(&b4, 2) // truss 2
	put(&b4, 1) // deg(1)
	put(&b4, 0) // neighbor 0
	put(&b4, 2) // truss 2
	expectCorrupt(t, sealed(&b4), "edge-count mismatch")
	// Asymmetric adjacency: vertex 1 lists 0, vertex 0 lists nothing.
	var b5 bytes.Buffer
	b5.WriteString(formatV3)
	put(&b5, 2) // n
	put(&b5, 2) // maxTruss
	put(&b5, 1) // m
	put(&b5, 0) // deg(0)
	put(&b5, 1) // deg(1)
	put(&b5, 0) // neighbor 0
	put(&b5, 2) // truss 2
	expectCorrupt(t, sealed(&b5), "asymmetric adjacency")
	// Degree exceeding the vertex count: must fail fast, not drain the input.
	var b6 bytes.Buffer
	b6.WriteString(formatV3)
	put(&b6, 2)     // n
	put(&b6, 2)     // maxTruss
	put(&b6, 1)     // m
	put(&b6, 1<<40) // deg(0)
	expectCorrupt(t, sealed(&b6), "absurd degree")
}

// TestReadFromVersions pins the version dispatch: WriteTo emits version 3
// and ReadFrom reads it back; every other version — the retired 1 and 2 and
// an unknown future 9 — is rejected with ErrUnsupportedVersion rather than a
// generic bad-magic one, and non-CTCIDX input is bad magic.
func TestReadFromVersions(t *testing.T) {
	ix := Build(paperGraph())
	var v3 bytes.Buffer
	if _, err := ix.WriteTo(&v3); err != nil {
		t.Fatal(err)
	}
	raw := v3.Bytes()
	if string(raw[:len(formatV3)]) != formatV3 {
		t.Fatalf("WriteTo emitted header %q", raw[:len(formatV3)])
	}
	back, err := ReadFrom(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("v3 snapshot rejected: %v", err)
	}
	if back.Graph().M() != ix.Graph().M() || back.MaxTruss() != ix.MaxTruss() {
		t.Fatal("v3 round-trip mismatch")
	}

	// Other versions: a version error, and NOT ErrCorrupt (the file may be
	// fine — this reader just does not decode it). The payload is v3's, so
	// only the header decides.
	for _, version := range []string{"1", "2", "9"} {
		old := append([]byte(magicPrefix+version+"\n"), raw[len(formatV3):]...)
		_, err = ReadFrom(bytes.NewReader(old))
		if !errors.Is(err, ErrUnsupportedVersion) {
			t.Fatalf("version %s error = %v, want ErrUnsupportedVersion", version, err)
		}
		if errors.Is(err, ErrCorrupt) {
			t.Fatalf("version %s wrongly classified as corrupt: %v", version, err)
		}
	}

	// Garbage: bad magic.
	_, err = ReadFrom(strings.NewReader("NOTANIDX........"))
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("garbage error = %v, want bad magic", err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic should wrap ErrCorrupt, got %v", err)
	}
}

// TestReadFromTruncatedCorpus is the torn-file corpus: a valid v3 snapshot
// truncated at every possible byte offset must produce a clean ErrCorrupt,
// never a panic and never a successful decode. This is exactly the family
// of inputs a crash mid-checkpoint leaves behind.
func TestReadFromTruncatedCorpus(t *testing.T) {
	ix := Build(paperGraph())
	var full bytes.Buffer
	if _, err := ix.WriteTo(&full); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	if _, err := ReadFrom(bytes.NewReader(raw)); err != nil {
		t.Fatalf("pristine v3 snapshot rejected: %v", err)
	}
	for cut := 0; cut < len(raw); cut++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("truncation at %d/%d panicked: %v", cut, len(raw), r)
				}
			}()
			expectCorrupt(t, raw[:cut], "truncation")
		}()
	}
}

// TestReadFromBitFlipCorpus flips every byte of a valid v3 snapshot in turn.
// The CRC trailer guarantees no flip is silently accepted: any decode that
// does not fail structurally must fail the checksum. (Without the trailer, a
// flip inside a trussness varint would round-trip undetected.)
func TestReadFromBitFlipCorpus(t *testing.T) {
	ix := Build(paperGraph())
	var full bytes.Buffer
	if _, err := ix.WriteTo(&full); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	mut := make([]byte, len(raw))
	for pos := 0; pos < len(raw); pos++ {
		copy(mut, raw)
		mut[pos] ^= 0x01
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("bit flip at %d panicked: %v", pos, r)
				}
			}()
			_, err := ReadFrom(bytes.NewReader(mut))
			if err == nil {
				t.Fatalf("bit flip at byte %d accepted silently", pos)
			}
		}()
	}
}
