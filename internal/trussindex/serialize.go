package trussindex

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"repro/internal/graph"
)

// Serialization format. The 8-byte header is "CTCIDX" + an ASCII format
// version digit + '\n', so a snapshot file identifies both the format and
// its revision; the reader decodes the current version and rejects any other
// with ErrUnsupportedVersion.
//
// Version 3, little-endian varints after the header:
//
//	n (uvarint), maxTruss (uvarint), m (uvarint)
//	per vertex v: deg (uvarint), then deg pairs (neighbor uvarint, τ uvarint)
//	trailer: CRC-32C (Castagnoli, 4 bytes LE) of header + payload
//
// The adjacency is stored in index order (descending trussness), so decoding
// rebuilds the exact index without re-sorting. Vertex trussness is implied
// by the first pair. The trailer lets a reader distinguish a complete
// snapshot from a torn or bit-flipped one even when the truncation happens
// to fall on a varint boundary — the WAL checkpoint recovery path depends on
// this to reject a checkpoint file the crash interrupted.

const (
	magicPrefix = "CTCIDX"
	// formatV3 is the current header.
	formatV3 = magicPrefix + "3\n"
)

// ErrUnsupportedVersion is returned by ReadFrom for a well-formed CTCIDX
// header of a format version other than the current one. It does not wrap
// ErrCorrupt: the file may be intact, just not readable by this build.
var ErrUnsupportedVersion = errors.New("trussindex: unsupported index format version")

// castagnoli is the CRC-32C table shared by the serializer and the WAL.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is wrapped by every ReadFrom error caused by malformed,
// truncated, or bit-flipped input (as opposed to an unsupported-but-valid
// future format version). Callers switch with errors.Is to distinguish "this
// file is damaged" from I/O plumbing failures.
var ErrCorrupt = errors.New("trussindex: corrupt or truncated index")

// corruptError carries a specific diagnosis while matching ErrCorrupt.
type corruptError struct{ msg string }

func (e *corruptError) Error() string { return e.msg }
func (e *corruptError) Unwrap() error { return ErrCorrupt }

func corruptf(format string, args ...any) error {
	return &corruptError{msg: "trussindex: " + fmt.Sprintf(format, args...)}
}

// WriteTo serializes the index in the current format version. It returns
// the number of bytes written, which is the "Index Size" figure reported in
// Table 3.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	crc := crc32.New(castagnoli)
	cw := &countingWriter{w: io.MultiWriter(bw, crc)}
	if _, err := cw.Write([]byte(formatV3)); err != nil {
		return cw.n, err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(x uint64) error {
		n := binary.PutUvarint(buf[:], x)
		_, err := cw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(ix.g.N())); err != nil {
		return cw.n, err
	}
	if err := putUvarint(uint64(ix.maxTruss)); err != nil {
		return cw.n, err
	}
	if err := putUvarint(uint64(ix.g.M())); err != nil {
		return cw.n, err
	}
	for v := 0; v < ix.g.N(); v++ {
		lo, hi := ix.arcRange(v)
		if err := putUvarint(uint64(hi - lo)); err != nil {
			return cw.n, err
		}
		for i := lo; i < hi; i++ {
			if err := putUvarint(uint64(ix.nbr[i])); err != nil {
				return cw.n, err
			}
			if err := putUvarint(uint64(ix.nbrTruss[i])); err != nil {
				return cw.n, err
			}
		}
	}
	// Trailer: CRC of everything above, excluded from its own computation.
	binary.LittleEndian.PutUint32(buf[:4], crc.Sum32())
	if _, err := bw.Write(buf[:4]); err != nil {
		return cw.n, err
	}
	cw.n += 4
	return cw.n, bw.Flush()
}

// crcByteReader feeds every byte it delivers into a running CRC, so the
// decoder can verify the v3 trailer without buffering the payload. It
// implements io.ByteReader for binary.ReadUvarint.
type crcByteReader struct {
	r   *bufio.Reader
	crc hash.Hash32
}

func (cr *crcByteReader) ReadByte() (byte, error) {
	b, err := cr.r.ReadByte()
	if err == nil {
		cr.crc.Write([]byte{b})
	}
	return b, err
}

func (cr *crcByteReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc.Write(p[:n])
	return n, err
}

// ReadFrom deserializes an index previously written with WriteTo. Malformed
// input of any shape — truncated mid-varint, impossible counts, asymmetric
// adjacency, a CRC mismatch — yields an error wrapping ErrCorrupt, never a
// panic.
func ReadFrom(r io.Reader) (*Index, error) {
	cr := &crcByteReader{r: bufio.NewReader(r), crc: crc32.New(castagnoli)}
	head := make([]byte, len(formatV3))
	if _, err := io.ReadFull(cr, head); err != nil {
		return nil, corruptf("reading magic: %v", err)
	}
	if string(head) != formatV3 {
		if string(head[:len(magicPrefix)]) == magicPrefix && head[len(head)-1] == '\n' {
			return nil, fmt.Errorf("%w %q (supported: 3)", ErrUnsupportedVersion, head[len(magicPrefix):len(head)-1])
		}
		return nil, corruptf("bad magic %q", head)
	}
	n64, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, corruptf("reading n: %v", err)
	}
	if n64 > graph.MaxVertexID+1 {
		return nil, corruptf("vertex count %d exceeds MaxVertexID", n64)
	}
	maxTruss, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, corruptf("reading maxTruss: %v", err)
	}
	// τ̄ is bounded by the largest clique, hence by n; anything bigger is a
	// corrupt header (and would make Thresholds allocate absurdly).
	if maxTruss > n64 {
		return nil, corruptf("max trussness %d exceeds vertex count %d", maxTruss, n64)
	}
	m64, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, corruptf("reading m: %v", err)
	}
	// Each vertex has fewer neighbors than there are vertices. n64 is already
	// bounded by MaxVertexID+1, so the product cannot overflow, and an n=0
	// file must declare m=0 (the unsigned n64-1 would wrap).
	var maxM uint64
	if n64 > 0 {
		maxM = n64 * (n64 - 1) / 2
	}
	if m64 > maxM {
		return nil, corruptf("edge count %d impossible for %d vertices", m64, n64)
	}
	n := int(n64)
	ix := &Index{
		off:         make([]int32, n+1),
		vertexTruss: make([]int32, n),
		maxTruss:    int32(maxTruss),
	}
	b := graph.NewBuilder(n, 0)
	if n > 0 {
		b.EnsureVertex(n - 1)
	}
	for v := 0; v < n; v++ {
		deg, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, corruptf("vertex %d degree: %v", v, err)
		}
		if deg > n64 {
			return nil, corruptf("vertex %d degree %d exceeds vertex count", v, deg)
		}
		// The flat arrays grow by append: deg comes from untrusted input, so
		// never trust it as a preallocation size.
		for i := 0; i < int(deg); i++ {
			u, err := binary.ReadUvarint(cr)
			if err != nil {
				return nil, corruptf("vertex %d neighbor: %v", v, err)
			}
			t, err := binary.ReadUvarint(cr)
			if err != nil {
				return nil, corruptf("vertex %d truss: %v", v, err)
			}
			if u >= n64 || int(u) == v {
				return nil, corruptf("vertex %d: bad neighbor %d", v, u)
			}
			if t > maxTruss {
				return nil, corruptf("vertex %d: trussness %d exceeds declared max %d", v, t, maxTruss)
			}
			ix.nbr = append(ix.nbr, int32(u))
			ix.nbrTruss = append(ix.nbrTruss, int32(t))
			if int(u) > v {
				b.AddEdge(v, int(u))
			}
		}
		ix.off[v+1] = int32(len(ix.nbr))
		if deg > 0 {
			ix.vertexTruss[v] = ix.nbrTruss[ix.off[v]]
		}
	}
	// The payload CRC is computed before the trailer bytes are read, so the
	// trailer never hashes itself.
	sum := cr.crc.Sum32()
	var tr [4]byte
	if _, err := io.ReadFull(cr.r, tr[:]); err != nil {
		return nil, corruptf("reading CRC trailer: %v", err)
	}
	if got := binary.LittleEndian.Uint32(tr[:]); got != sum {
		return nil, corruptf("CRC mismatch: trailer %08x, payload %08x", got, sum)
	}
	// A complete snapshot ends exactly here: trailing bytes mean the header
	// lied about the shape — reject rather than silently ignore them.
	if _, err := cr.r.ReadByte(); err != io.EOF {
		return nil, corruptf("trailing garbage after index payload")
	}
	ix.g = b.Build()
	if uint64(ix.g.M()) != m64 {
		return nil, corruptf("header declares %d edges, adjacency holds %d", m64, ix.g.M())
	}
	// Scatter the per-arc trussness into the dense edge-ID array and record
	// each arc's edge ID. The graph was built from the u > v arcs only, so a
	// u < v arc without a matching edge means the input's adjacency was
	// asymmetric — reject it rather than hand query paths an index whose
	// lists disagree with its graph.
	ix.edgeTruss = make([]int32, ix.g.M())
	ix.nbrEID = make([]int32, len(ix.nbr))
	for v := 0; v < n; v++ {
		for i := ix.off[v]; i < ix.off[v+1]; i++ {
			u := int(ix.nbr[i])
			e := ix.g.EdgeID(v, u)
			if e < 0 {
				return nil, corruptf("asymmetric adjacency: %d lists %d but not vice versa", v, u)
			}
			ix.nbrEID[i] = e
			if u > v {
				ix.edgeTruss[e] = ix.nbrTruss[i]
			}
		}
	}
	ix.thresholds = ix.computeThresholds()
	ix.buildTree()
	return ix, nil
}

// ApproxBytes estimates the in-memory index footprint: 12 bytes per
// directed arc (neighbor + trussness + edge ID), 4 per vertex for the
// offset table and 4 for the vertex trussness, plus 4 per edge for the
// dense trussness array (which replaced the seed's ~16-byte/edge hash
// table) and 8 per truss-level tree node (at most 2n-1 of them). This is
// the basis of the Table 3 comparison against Graph.ApproxBytes.
func (ix *Index) ApproxBytes() int64 {
	var b int64
	b += int64(len(ix.nbr)) * 12
	b += int64(len(ix.off)) * 4
	b += int64(len(ix.vertexTruss)) * 4
	b += int64(len(ix.edgeTruss)) * 4
	b += int64(len(ix.tree)) * 8
	return b
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
