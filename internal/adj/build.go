package adj

import (
	"encoding/binary"
	"slices"

	"gdbm/internal/model"
)

// Source is the build-time view of a mutable store. Implementations are
// unlocked adapters: the caller (Versioned.Pin's contract) holds the
// store's writer-excluding lock once around the whole render, so Source
// methods must read the underlying structures without taking locks that
// would re-enter it.
//
// IDs are allocated densely from 1 and never reused, so MaxNodeID and
// MaxEdgeID are high-water marks; removed IDs appear as absent.
type Source interface {
	MaxNodeID() (model.NodeID, error)
	MaxEdgeID() (model.EdgeID, error)
	// NodeByID returns the record for id and whether it exists.
	NodeByID(id model.NodeID) (model.Node, bool, error)
	// EdgeByID returns the record for id and whether it exists.
	EdgeByID(id model.EdgeID) (model.Edge, bool, error)
	// OutEdges returns the IDs of edges whose From is id, in any order.
	// The returned slice is not retained or mutated by the builder.
	OutEdges(id model.NodeID) ([]model.EdgeID, error)
	// InEdges returns the IDs of edges whose To is id, in any order.
	InEdges(id model.NodeID) ([]model.EdgeID, error)
}

func blocksFor(max uint64) int {
	if max == 0 {
		return 0
	}
	return int(max>>blockShift) + 1
}

// Build renders a Snapshot of src at the given stable epoch. When prev is
// a snapshot of the same layout and full is false, blocks absent from the
// dirty sets are shared with prev instead of being re-rendered — the
// copy-on-write path that keeps re-rendering proportional to the mutated
// region rather than the graph.
func Build(src Source, layout Layout, epoch uint64, prev *Snapshot, dirtyN, dirtyE map[uint32]struct{}, full bool) (*Snapshot, error) {
	maxN, err := src.MaxNodeID()
	if err != nil {
		return nil, err
	}
	maxE, err := src.MaxEdgeID()
	if err != nil {
		return nil, err
	}
	reuse := prev != nil && !full && prev.layout == layout
	s := &Snapshot{
		epoch:  epoch,
		layout: layout,
		nb:     make([]*nodeBlock, blocksFor(uint64(maxN))),
		eb:     make([]*edgeBlock, blocksFor(uint64(maxE))),
	}
	for b := range s.nb {
		if reuse && b < len(prev.nb) {
			if _, dirty := dirtyN[uint32(b)]; !dirty {
				s.nb[b] = prev.nb[b]
				if s.nb[b] != nil {
					s.order += len(s.nb[b].nodes)
				}
				continue
			}
		}
		blk, err := buildNodeBlock(src, layout, uint32(b))
		if err != nil {
			return nil, err
		}
		s.nb[b] = blk
		if blk != nil {
			s.order += len(blk.nodes)
		}
	}
	for b := range s.eb {
		if reuse && b < len(prev.eb) {
			if _, dirty := dirtyE[uint32(b)]; !dirty {
				s.eb[b] = prev.eb[b]
				if s.eb[b] != nil {
					s.size += len(s.eb[b].edges)
				}
				continue
			}
		}
		blk, err := buildEdgeBlock(src, layout, uint32(b))
		if err != nil {
			return nil, err
		}
		s.eb[b] = blk
		if blk != nil {
			s.size += len(blk.edges)
		}
	}
	return s, nil
}

func buildNodeBlock(src Source, layout Layout, b uint32) (*nodeBlock, error) {
	lo := uint64(b) << blockShift
	var blk nodeBlock
	var locals []uint16
	for off := uint64(0); off < blockSize; off++ {
		id := lo + off
		if id == 0 {
			continue
		}
		n, ok, err := src.NodeByID(model.NodeID(id))
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		blk.nodes = append(blk.nodes, n)
		locals = append(locals, uint16(off))
	}
	if len(blk.nodes) == 0 {
		return nil, nil
	}
	blk.dir = makeDirectory(layout, locals)
	var err error
	var sc rowScratch
	if blk.out, err = encodeRows(src.OutEdges, blk.nodes, &sc); err != nil {
		return nil, err
	}
	if blk.in, err = encodeRows(src.InEdges, blk.nodes, &sc); err != nil {
		return nil, err
	}
	return &blk, nil
}

func buildEdgeBlock(src Source, layout Layout, b uint32) (*edgeBlock, error) {
	lo := uint64(b) << blockShift
	var blk edgeBlock
	var locals []uint16
	for off := uint64(0); off < blockSize; off++ {
		id := lo + off
		if id == 0 {
			continue
		}
		e, ok, err := src.EdgeByID(model.EdgeID(id))
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		blk.edges = append(blk.edges, e)
		locals = append(locals, uint16(off))
	}
	if len(blk.edges) == 0 {
		return nil, nil
	}
	blk.dir = makeDirectory(layout, locals)
	return &blk, nil
}

// rowScratch is the working memory encodeRows reuses across the two
// directions of one block.
type rowScratch struct {
	lists  [][]model.EdgeID // the Source's incident slices, one per node
	sorted []model.EdgeID   // every row's sorted copy, back to back
}

// encodeRows builds one CSR direction: per node, the incident edge IDs
// sorted ascending and delta-uvarint encoded behind a uvarint degree.
// Sorting owns a scratch copy, never the Source's slice. The rows are
// sized before they are encoded, so a block costs the same few
// allocations whatever its edge count, and buf carries no growth slack.
func encodeRows(incident func(model.NodeID) ([]model.EdgeID, error), nodes []model.Node, sc *rowScratch) (rows, error) {
	if cap(sc.lists) < len(nodes) {
		sc.lists = make([][]model.EdgeID, 0, len(nodes))
	}
	sc.lists = sc.lists[:0]
	total := 0
	for i := range nodes {
		eids, err := incident(nodes[i].ID)
		if err != nil {
			return rows{}, err
		}
		sc.lists = append(sc.lists, eids)
		total += len(eids)
	}
	if cap(sc.sorted) < total {
		sc.sorted = make([]model.EdgeID, 0, total)
	}
	sorted, size := sc.sorted[:0], 0
	for _, eids := range sc.lists {
		start := len(sorted)
		sorted = append(sorted, eids...)
		row := sorted[start:]
		slices.Sort(row)
		size += uvarintLen(uint64(len(row)))
		prev := uint64(0)
		for _, e := range row {
			size += uvarintLen(uint64(e) - prev)
			prev = uint64(e)
		}
	}
	r := rows{offs: make([]uint32, 1, len(nodes)+1), buf: make([]byte, 0, size)}
	for _, eids := range sc.lists {
		row := sorted[:len(eids)]
		sorted = sorted[len(eids):]
		r.buf = binary.AppendUvarint(r.buf, uint64(len(row)))
		prev := uint64(0)
		for _, e := range row {
			r.buf = binary.AppendUvarint(r.buf, uint64(e)-prev)
			prev = uint64(e)
		}
		r.offs = append(r.offs, uint32(len(r.buf)))
	}
	return r, nil
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}
