// Package hgio serializes hypergraphs and vertex sets. Two formats:
//
// Text (the CLI interchange format): line-oriented, human-editable.
//
//	hypergraph <n> <m>
//	v1 v2 v3        # one edge per line, space-separated vertex ids
//	...
//
// Binary: a compact varint encoding for large instances (magic "HGB1",
// then n, m, then each edge as a length-prefixed delta-encoded vertex
// list). Canonical form (sorted edges) makes delta encoding effective.
// WriteBinary only emits canonical bodies, and ReadBinary decodes those
// in one pass straight into the CSR arena, recording SHA-256 of the
// body as the graph's digest; any other body takes the Builder path.
//
// Vertex-set files (MIS certificates) are one vertex id per line.
package hgio

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync"

	"repro/internal/hypergraph"
)

// encodeBufs pools the binary-encoding chunk buffers Digest and
// WriteBinary use, so the service's per-request cache-key and response
// encodings stop allocating once warm. Encoding is chunked (flushed
// every encodeChunk bytes), so buffers stay small regardless of
// instance size; maxPooledEncodeBuf is a backstop against pathological
// single-edge encodings pinning large buffers in the pool.
var encodeBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// bodyBufs pools the buffers ReadAll reads bodies into. Only buffers up
// to maxPooledBody return to it: a pooled buffer stays live, and the GC
// sizes the heap at twice the live heap, so a pinned buffer costs about
// twice its size in RSS while traffic keeps the pool warm. A body
// larger than that describes an instance whose solve dwarfs one
// allocation, and one 64 MiB upload cannot pin its memory.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const (
	encodeChunk        = 1 << 15
	maxPooledEncodeBuf = 1 << 20
	maxPooledBody      = 1 << 16
)

func putEncodeBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledEncodeBuf {
		encodeBufs.Put(bp)
	}
}

// Digest returns the canonical instance digest: the hex SHA-256 of the
// binary encoding. Hypergraphs are canonical by construction (sorted,
// deduplicated edges), so two instances digest equal iff they have the
// same vertex count and edge set — the property result caches key on.
// A graph ReadBinary decoded from a canonical body carries its digest
// from decode; any other graph is encoded through a pooled chunk
// buffer, never materializing more than encodeChunk bytes at once.
func Digest(h *hypergraph.Hypergraph) string {
	if d := h.DigestMemo(); d != "" {
		return d
	}
	d := sha256.New()
	bp := encodeBufs.Get().(*[]byte)
	b := appendHeader((*bp)[:0], h)
	for _, e := range h.Edges() {
		if len(b) >= encodeChunk {
			d.Write(b)
			b = b[:0]
		}
		b = appendEdge(b, e)
	}
	d.Write(b)
	*bp = b[:0]
	putEncodeBuf(bp)
	return hex.EncodeToString(d.Sum(nil))
}

// appendHeader appends the encoding header: magic, n, m.
func appendHeader(b []byte, h *hypergraph.Hypergraph) []byte {
	b = append(b, binaryMagic...)
	b = binary.AppendUvarint(b, uint64(h.N()))
	return binary.AppendUvarint(b, uint64(h.M()))
}

// appendEdge appends one edge as a length-prefixed vertex list with
// delta encoding (sortedness makes the first vertex absolute and the
// rest gaps ≥ 1).
func appendEdge(b []byte, e hypergraph.Edge) []byte {
	b = binary.AppendUvarint(b, uint64(len(e)))
	prev := uint64(0)
	for i, v := range e {
		cur := uint64(v)
		if i == 0 {
			b = binary.AppendUvarint(b, cur)
		} else {
			b = binary.AppendUvarint(b, cur-prev)
		}
		prev = cur
	}
	return b
}

// WriteText emits the text format.
func WriteText(w io.Writer, h *hypergraph.Hypergraph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "hypergraph %d %d\n", h.N(), h.M()); err != nil {
		return err
	}
	for _, e := range h.Edges() {
		for i, v := range e {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(int(v))); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format. Blank lines and '#' comments are
// permitted after the header. The edge count in the header must match.
func ReadText(r io.Reader) (*hypergraph.Hypergraph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("hgio: empty input")
	}
	var n, m int
	if _, err := fmt.Sscanf(strings.TrimSpace(sc.Text()), "hypergraph %d %d", &n, &m); err != nil {
		return nil, fmt.Errorf("hgio: bad header %q: %w", sc.Text(), err)
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("hgio: bad header %q: negative counts", sc.Text())
	}
	b := hypergraph.NewBuilder(n)
	edges := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		e := make(hypergraph.Edge, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("hgio: bad vertex %q", f)
			}
			e = append(e, hypergraph.V(v))
		}
		b.AddEdgeSlice(e)
		edges++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if edges != m {
		return nil, fmt.Errorf("hgio: header declares %d edges, found %d", m, edges)
	}
	return b.Build()
}

// binaryMagic identifies the binary format, versioned.
const binaryMagic = "HGB1"

// WriteBinary emits the compact varint format through a pooled chunk
// buffer (the encoder — appendHeader/appendEdge — is shared with
// Digest so the two cannot drift).
func WriteBinary(w io.Writer, h *hypergraph.Hypergraph) error {
	bp := encodeBufs.Get().(*[]byte)
	b := appendHeader((*bp)[:0], h)
	defer func() {
		*bp = b[:0]
		putEncodeBuf(bp)
	}()
	for _, e := range h.Edges() {
		if len(b) >= encodeChunk {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
		b = appendEdge(b, e)
	}
	_, err := w.Write(b)
	return err
}

// ReadBinary reads r to EOF and decodes the bytes with DecodeBinary.
func ReadBinary(r io.Reader) (h *hypergraph.Hypergraph, err error) {
	err = ReadAll(r, func(body []byte) error {
		h, err = DecodeBinary(body)
		return err
	})
	return h, err
}

// ReadAll reads r to EOF into a pooled buffer and hands the bytes to
// use, returning use's error. The buffer goes back to the pool when use
// returns, so use must not retain body.
func ReadAll(r io.Reader, use func(body []byte) error) error {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyBufs.Put(buf)
		}
	}()
	// io.Copy sizes buf in one step for readers that know their length
	// (bytes.Reader's WriteTo) and grows it geometrically otherwise.
	if _, err := io.Copy(buf, r); err != nil {
		return fmt.Errorf("hgio: reading body: %w", err)
	}
	return use(buf.Bytes())
}

// DecodeBinary parses one binary-format instance occupying all of body;
// bytes after the declared edge list are an error. body is only read,
// never retained. A canonical body — exactly what WriteBinary emits —
// decodes in one pass (decodeCanonical); anything else goes through
// the Builder (decodeBuilder), which accepts or rejects it with the
// same verdict and error text whichever path saw it first.
func DecodeBinary(body []byte) (*hypergraph.Hypergraph, error) {
	if h := decodeCanonical(body); h != nil {
		return h, nil
	}
	return decodeBuilder(body)
}

// decodeCanonical decodes body if it is byte-for-byte what WriteBinary
// would emit for the graph it describes, else returns nil. Canonical
// means minimal varints, n and m at most 2^31, every edge nonempty and
// strictly increasing (each delta after the first ≥ 1) with vertices
// below n, every edge strictly lex-greater than the one before it, and
// no bytes after the last edge. The vertices go straight into an
// exactly sized CSR arena, and because the body is the graph's
// canonical encoding, its SHA-256 is the graph's Digest.
func decodeCanonical(body []byte) *hypergraph.Hypergraph {
	if !bytes.HasPrefix(body, []byte(binaryMagic)) {
		return nil
	}
	n, p, ok := canonUvarint(body, len(binaryMagic))
	if !ok || n > 1<<31 {
		return nil
	}
	m, p, ok := canonUvarint(body, p)
	// Every edge takes at least two bytes (its size and one vertex).
	if !ok || m > uint64(len(body)-p)/2 {
		return nil
	}
	// The edge list holds m size varints; the rest are vertices.
	total := countVarints(body[p:]) - int(m)
	if total < int(m) || total > math.MaxInt32 {
		return nil
	}
	verts := make([]hypergraph.V, total)
	off := make([]int32, m+1)
	w := 0
	for i := range int(m) {
		var k uint64
		if k, p, ok = canonUvarint(body, p); !ok || k == 0 || k > n || k > uint64(total-w) {
			return nil
		}
		// cmp is 0 while this edge ties the previous one on a prefix,
		// 1 once it is lex-greater; the first edge has no predecessor.
		var prev []hypergraph.V
		cmp := 1
		if i > 0 {
			prev, cmp = verts[off[i-1]:w], 0
		}
		v := uint64(0)
		for j := range int(k) {
			var d uint64
			if d, p, ok = canonUvarint(body, p); !ok || d >= n || (j > 0 && d == 0) {
				return nil
			}
			if v += d; v >= n { // v starts at 0: the first varint is absolute
				return nil
			}
			if cmp == 0 {
				switch {
				case j == len(prev) || hypergraph.V(v) > prev[j]:
					cmp = 1
				case hypergraph.V(v) < prev[j]:
					return nil
				}
			}
			verts[w] = hypergraph.V(v)
			w++
		}
		if cmp == 0 { // equal to, or a prefix of, the previous edge
			return nil
		}
		off[i+1] = int32(w)
	}
	if p != len(body) {
		return nil
	}
	sum := sha256.Sum256(body)
	return hypergraph.FromCanonicalCSR(int(n), verts, off, hex.EncodeToString(sum[:]))
}

// countVarints counts the varints b holds if it is a whole number of
// them: every varint ends in exactly one byte below 0x80. Eight bytes
// at a time, since this pass runs over every body.
func countVarints(b []byte) int {
	c := 0
	for ; len(b) >= 8; b = b[8:] {
		c += bits.OnesCount64(^binary.LittleEndian.Uint64(b) & 0x8080808080808080)
	}
	for _, x := range b {
		if x < 0x80 {
			c++
		}
	}
	return c
}

// canonUvarint reads the varint at body[p:] and returns it with the
// offset after it; ok is false at end of body, on overflow, or on a
// non-minimal encoding (a multi-byte varint ending in a zero byte,
// which binary.AppendUvarint never emits).
func canonUvarint(body []byte, p int) (x uint64, next int, ok bool) {
	for s := uint(0); p < len(body) && s < 64; s += 7 {
		c := body[p]
		p++
		if c < 0x80 {
			if (s > 0 && c == 0) || (s == 63 && c > 1) {
				return 0, p, false
			}
			return x | uint64(c)<<s, p, true
		}
		x |= uint64(c&0x7f) << s
	}
	return 0, p, false
}

// decodeBuilder parses any well-formed body through the Builder, which
// sorts and deduplicates what decodeCanonical refuses to.
func decodeBuilder(body []byte) (*hypergraph.Hypergraph, error) {
	br := bytes.NewReader(body)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("hgio: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("hgio: bad magic %q", magic)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	m, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > 1<<31 || m > 1<<31 {
		return nil, fmt.Errorf("hgio: implausible sizes n=%d m=%d", n, m)
	}
	b := hypergraph.NewBuilder(int(n))
	for i := uint64(0); i < m; i++ {
		k, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("hgio: edge %d size: %w", i, err)
		}
		if k == 0 || k > n {
			return nil, fmt.Errorf("hgio: edge %d has implausible size %d", i, k)
		}
		// Grow the edge as bytes actually arrive instead of trusting the
		// declared size k up front: a truncated body with a huge k must
		// fail on read, not allocate gigabytes first.
		e := make(hypergraph.Edge, 0, min(k, 1<<16))
		prev := uint64(0)
		for j := uint64(0); j < k; j++ {
			d, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("hgio: edge %d vertex %d: %w", i, j, err)
			}
			if j == 0 {
				prev = d
			} else {
				prev += d
			}
			e = append(e, hypergraph.V(prev))
		}
		b.AddEdgeSlice(e)
	}
	if br.Len() > 0 {
		return nil, fmt.Errorf("hgio: %d trailing byte(s) after the %d declared edges", br.Len(), m)
	}
	return b.Build()
}

// WriteVertexSet emits a vertex mask as one id per line (ascending).
func WriteVertexSet(w io.Writer, mask []bool) error {
	bw := bufio.NewWriter(w)
	for v, in := range mask {
		if in {
			if _, err := fmt.Fprintln(bw, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadVertexSet parses one id per line into a mask of length n.
func ReadVertexSet(r io.Reader, n int) ([]bool, error) {
	mask := make([]bool, n)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.Atoi(line)
		if err != nil {
			return nil, fmt.Errorf("hgio: bad vertex %q", line)
		}
		if v < 0 || v >= n {
			return nil, fmt.Errorf("hgio: vertex %d out of range [0,%d)", v, n)
		}
		mask[v] = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return mask, nil
}
