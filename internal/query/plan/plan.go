// Package plan contains the logical query representation, the planner and
// the physical operators shared by the three query-language front-ends. A
// parsed query becomes a MatchSpec (graph pattern + predicate + projection);
// the planner compiles it into a tree of push-based operators that run
// against any engine exposing the Source interface.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"gdbm/internal/model"
	"gdbm/internal/query"
)

// Source is the engine surface the executor needs: structural reads plus an
// optional index-accelerated node lookup.
type Source interface {
	model.Graph
	// IndexedNodes streams nodes with the given label ("" = any) and, if
	// prop is non-empty, with prop equal to v, using a secondary index.
	// handled reports whether an index served the request; when false the
	// executor falls back to a full scan.
	IndexedNodes(label, prop string, v model.Value, fn func(model.Node) bool) (handled bool, err error)
}

// UnindexedSource adapts a bare model.Graph into a Source with no indexes.
type UnindexedSource struct{ model.Graph }

// IndexedNodes implements Source; it never handles the request.
func (UnindexedSource) IndexedNodes(string, string, model.Value, func(model.Node) bool) (bool, error) {
	return false, nil
}

// Pinnable is implemented by sources that can serve a whole read statement
// from one immutable point-in-time view: propcore's Core on main-memory
// stores, whose pinned source reads the store's copy-on-write snapshot.
type Pinnable interface {
	PinSource() (Source, model.ReleaseFunc, error)
}

// Pin returns the source one read statement plans and executes against,
// and the release to call when its last row has been delivered. A
// Pinnable source answers with its pinned view — structural reads, sorted
// adjacency, statistics and index hits all come from the same snapshot,
// so the statement sees exactly one state of the graph and no read takes
// the store's lock. Any other source is returned as it is, with a no-op
// release. The three query languages call Pin for every plan-executed
// read statement, before compiling it.
func Pin(src Source) (Source, model.ReleaseFunc, error) {
	if p, ok := src.(Pinnable); ok {
		return p.PinSource()
	}
	return src, func() {}, nil
}

// Op is a push-based physical operator: it streams rows to emit. Returning
// a non-nil error from emit aborts execution with that error.
//
// Rows are borrowed: a row handed to emit is valid only during the call,
// because the operator that produced it overwrites the same slots for its
// next binding. A consumer that keeps a row past the call keeps a Clone.
type Op interface {
	Run(src Source, emit func(query.Row) error) error
	String() string
}

// errStop signals deliberate early termination (e.g. Limit reached).
var errStop = fmt.Errorf("plan: stop")

// slotOf returns the slot of a variable the operator binds; the plan's
// pattern layout must have one.
func slotOf(op string, r query.Row, name string) (int, error) {
	i := r.Layout.Slot(name)
	if i < 0 {
		return -1, fmt.Errorf("%s: no slot for %q in the row layout", op, name)
	}
	return i, nil
}

// boundNode returns the node bound to name in r.
func boundNode(op string, r query.Row, name string) (model.Node, error) {
	e, ok := r.Get(name)
	if !ok || e.Kind != query.EntryNode {
		return model.Node{}, fmt.Errorf("%s: %q is not a bound node", op, name)
	}
	return e.Node, nil
}

// bindLayout fixes the pattern layout of the operator chain under root:
// every variable a scan or expansion in the chain binds gets a slot, and the
// chain's leaf scan allocates its one row with that layout. Project and
// Aggregate outputs carry layouts of their own. Both planners call it; an
// operator chain built by hand needs it before Run.
func bindLayout(root Op) {
	var vars []string
	for op := root; op != nil; {
		switch x := op.(type) {
		case *NodeScan:
			vars = append(vars, x.Var)
			if x.Child == nil {
				x.layout = query.NewLayout(vars...)
				return
			}
			op = x.Child
		case *Expand:
			vars = append(vars, x.ToVar)
			if x.EdgeVar != "" {
				vars = append(vars, x.EdgeVar)
			}
			op = x.Child
		case *ExpandVar:
			vars = append(vars, x.ToVar)
			op = x.Child
		case *IntersectExpand:
			vars = append(vars, x.ToVar)
			op = x.Child
		case *Filter:
			op = x.Child
		case *Project:
			op = x.Child
		case *Aggregate:
			op = x.Child
		case *Distinct:
			op = x.Child
		case *OrderBy:
			op = x.Child
		case *Limit:
			op = x.Child
		default:
			return
		}
	}
}

// --- NodeScan ---

// NodeScan binds Var to every node matching Label and PropEq. With a Child,
// it expands each input row (cartesian semantics); without, it is a leaf
// and owns the row every operator above it binds into.
type NodeScan struct {
	Child  Op // may be nil
	Var    string
	Label  string
	PropEq model.Properties // all must match

	layout *query.Layout // leaf only; set by bindLayout
}

// Run implements Op.
func (s *NodeScan) Run(src Source, emit func(query.Row) error) error {
	scanInto := func(row query.Row) error {
		slot, err := slotOf("nodescan", row, s.Var)
		if err != nil {
			return err
		}
		defer func() { row.Slots[slot] = query.Entry{} }()
		send := func(n model.Node) error {
			if s.Label != "" && n.Label != s.Label {
				return nil
			}
			for k, v := range s.PropEq {
				if !n.Props.Get(k).Equal(v) {
					return nil
				}
			}
			row.Slots[slot] = query.NodeEntry(n)
			return emit(row)
		}
		// Try one indexed property first.
		for k, v := range s.PropEq {
			var innerErr error
			handled, err := src.IndexedNodes(s.Label, k, v, func(n model.Node) bool {
				if e := send(n); e != nil {
					innerErr = e
					return false
				}
				return true
			})
			if err != nil {
				return err
			}
			if handled {
				return innerErr
			}
			break
		}
		// Label-only index.
		if s.Label != "" {
			var innerErr error
			handled, err := src.IndexedNodes(s.Label, "", model.Null(), func(n model.Node) bool {
				if e := send(n); e != nil {
					innerErr = e
					return false
				}
				return true
			})
			if err != nil {
				return err
			}
			if handled {
				return innerErr
			}
		}
		var innerErr error
		err = src.Nodes(func(n model.Node) bool {
			if e := send(n); e != nil {
				innerErr = e
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		return innerErr
	}
	if s.Child == nil {
		return scanInto(query.NewRow(s.layout))
	}
	return s.Child.Run(src, scanInto)
}

// String implements Op.
func (s *NodeScan) String() string {
	out := fmt.Sprintf("NodeScan(%s:%s %v)", s.Var, s.Label, s.PropEq)
	if s.Child != nil {
		out = s.Child.String() + " -> " + out
	}
	return out
}

// --- Expand ---

// Expand walks edges from the node bound to FromVar. If ToVar is unbound it
// binds the far node; if bound, it checks connectivity (join). EdgeVar may
// be empty.
type Expand struct {
	Child   Op
	FromVar string
	EdgeVar string
	ToVar   string
	Label   string
	Dir     model.Direction
}

// Run implements Op. The neighbor callback is built once per Run and reads
// the current input row's bindings from st, which the per-row function
// sets, so a Neighbors call allocates nothing of the operator's own. The
// state is one struct so that it escapes as one allocation per Run.
func (x *Expand) Run(src Source, emit func(query.Row) error) error {
	var st struct {
		row              query.Row
		toSlot, edgeSlot int
		toBound          bool
		join             model.NodeID
		err              error
	}
	visit := func(e model.Edge, n model.Node) bool {
		if x.Label != "" && e.Label != x.Label {
			return true
		}
		if st.toBound {
			if st.join != n.ID {
				return true
			}
		} else {
			st.row.Slots[st.toSlot] = query.NodeEntry(n)
		}
		if st.edgeSlot >= 0 {
			st.row.Slots[st.edgeSlot] = query.EdgeEntry(e)
		}
		if err := emit(st.row); err != nil {
			st.err = err
			return false
		}
		return true
	}
	return x.Child.Run(src, func(r query.Row) error {
		from, err := boundNode("expand", r, x.FromVar)
		if err != nil {
			return err
		}
		toSlot, err := slotOf("expand", r, x.ToVar)
		if err != nil {
			return err
		}
		edgeSlot := -1
		if x.EdgeVar != "" {
			if edgeSlot, err = slotOf("expand", r, x.EdgeVar); err != nil {
				return err
			}
			defer func() { r.Slots[edgeSlot] = query.Entry{} }()
		}
		target := r.Slots[toSlot]
		if target.Kind != query.EntryUnset && target.Kind != query.EntryNode {
			return nil // bound to a non-node: no neighbor matches
		}
		toBound := target.Kind == query.EntryNode
		if !toBound {
			defer func() { r.Slots[toSlot] = query.Entry{} }()
		}
		st.row, st.toSlot, st.edgeSlot, st.toBound, st.join, st.err = r, toSlot, edgeSlot, toBound, target.Node.ID, nil
		if err := src.Neighbors(from.ID, x.Dir, visit); err != nil {
			return err
		}
		return st.err
	})
}

// String implements Op.
func (x *Expand) String() string {
	return fmt.Sprintf("%s -> Expand(%s-[%s:%s]-%s %s)", x.Child, x.FromVar, x.EdgeVar, x.Label, x.ToVar, x.Dir)
}

// --- Filter ---

// Filter keeps rows whose condition evaluates to true.
type Filter struct {
	Child Op
	Cond  query.Expr
}

// Run implements Op.
func (f *Filter) Run(src Source, emit func(query.Row) error) error {
	return f.Child.Run(src, func(row query.Row) error {
		v, err := f.Cond.Eval(row)
		if err != nil {
			return err
		}
		if b, ok := v.AsBool(); ok && b {
			return emit(row)
		}
		return nil
	})
}

// String implements Op.
func (f *Filter) String() string { return fmt.Sprintf("%s -> Filter(%s)", f.Child, f.Cond) }

// --- Project ---

// Item is one output column.
type Item struct {
	Name string
	Expr query.Expr
}

// Project reduces rows to named value columns.
type Project struct {
	Child Op
	Items []Item
}

// outputRow returns a row with one slot per item name (repeated names share
// a slot; the last item wins) and each item's slot.
func outputRow(names []string) (query.Row, []int) {
	out := query.NewRow(query.NewLayout(names...))
	slots := make([]int, len(names))
	for i, n := range names {
		slots[i] = out.Layout.Slot(n)
	}
	return out, slots
}

// Run implements Op. It fills one output row per Run and lends it to emit.
func (p *Project) Run(src Source, emit func(query.Row) error) error {
	names := make([]string, len(p.Items))
	for i, it := range p.Items {
		names[i] = it.Name
	}
	out, slots := outputRow(names)
	return p.Child.Run(src, func(row query.Row) error {
		for i, it := range p.Items {
			v, err := it.Expr.Eval(row)
			if err != nil {
				return err
			}
			out.Slots[slots[i]] = query.ValueEntry(v)
		}
		return emit(out)
	})
}

// String implements Op.
func (p *Project) String() string {
	parts := make([]string, len(p.Items))
	for i, it := range p.Items {
		parts[i] = it.Name
	}
	return fmt.Sprintf("%s -> Project(%s)", p.Child, strings.Join(parts, ", "))
}

// --- Aggregate ---

// AggItem is one aggregate output column.
type AggItem struct {
	Name string
	Fn   string // count sum avg min max
	Arg  query.Expr
}

// Aggregate groups rows by the GroupBy items and folds the aggregates.
type Aggregate struct {
	Child   Op
	GroupBy []Item
	Aggs    []AggItem
}

// aggFn is an aggregate function, resolved from AggItem.Fn once per Run.
type aggFn uint8

const (
	aggUnknown aggFn = iota
	aggCount
	aggSum
	aggAvg
	aggMin
	aggMax
)

func parseAggFn(fn string) aggFn {
	switch strings.ToLower(fn) {
	case "count":
		return aggCount
	case "sum":
		return aggSum
	case "avg":
		return aggAvg
	case "min":
		return aggMin
	case "max":
		return aggMax
	}
	return aggUnknown
}

// aggAcc folds the numeric side of one aggregate of one group: sum and avg
// read it, count reads the group's row count instead, and min and max keep
// their Values apart (Aggregate.Run's extremes), only when the plan has
// one.
type aggAcc struct {
	count int     // non-null values: avg's denominator
	sum   float64 // sum of the numeric ones
}

// Run implements Op. Groups live in flat slices indexed by first-seen
// order, and grouping reuses one key buffer, so a row that joins an
// existing group allocates nothing and a new group costs one map key.
func (a *Aggregate) Run(src Source, emit func(query.Row) error) error {
	nk, na := len(a.GroupBy), len(a.Aggs)
	fns := make([]aggFn, na)
	ext := make([]int, na) // a min/max aggregate's index among a group's extremes
	ne := 0
	for i, ag := range a.Aggs {
		fns[i] = parseAggFn(ag.Fn)
		if fns[i] == aggMin || fns[i] == aggMax {
			ext[i] = ne
			ne++
		}
	}
	groups := map[string]int{}
	var (
		rowCounts []int         // rows per group
		keyVals   []model.Value // nk per group
		accs      []aggAcc      // na per group
		extremes  []model.Value // ne per group
		kb        []byte
	)
	newGroup := func() int {
		rowCounts = append(rowCounts, 0)
		accs = append(accs, make([]aggAcc, na)...)
		extremes = append(extremes, make([]model.Value, ne)...)
		return len(rowCounts) - 1
	}
	key := make([]model.Value, nk)
	err := a.Child.Run(src, func(row query.Row) error {
		kb = kb[:0]
		for i, g := range a.GroupBy {
			v, err := g.Expr.Eval(row)
			if err != nil {
				return err
			}
			key[i] = v
			kb = v.EncodeKey(kb)
			kb = append(kb, 0xFF)
		}
		gi, ok := groups[string(kb)]
		if !ok {
			gi = newGroup()
			groups[string(kb)] = gi
			keyVals = append(keyVals, key...)
		}
		rowCounts[gi]++
		acc := accs[gi*na : (gi+1)*na]
		ex := extremes[gi*ne : (gi+1)*ne]
		for i, ag := range a.Aggs {
			var v model.Value
			if ag.Arg != nil {
				var err error
				v, err = ag.Arg.Eval(row)
				if err != nil {
					return err
				}
			}
			if v.IsNull() {
				continue
			}
			switch fns[i] {
			case aggSum, aggAvg:
				acc[i].count++
				if f, ok := v.AsFloat(); ok {
					acc[i].sum += f
				}
			case aggMin:
				if m := &ex[ext[i]]; m.IsNull() || v.Compare(*m) < 0 {
					*m = v
				}
			case aggMax:
				if m := &ex[ext[i]]; m.IsNull() || v.Compare(*m) > 0 {
					*m = v
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// A global aggregate over zero rows still yields one output row.
	if len(rowCounts) == 0 && nk == 0 {
		newGroup()
	}
	names := make([]string, 0, nk+na)
	for _, g := range a.GroupBy {
		names = append(names, g.Name)
	}
	for _, ag := range a.Aggs {
		names = append(names, ag.Name)
	}
	out, slots := outputRow(names)
	for gi, n := range rowCounts {
		for i := 0; i < nk; i++ {
			out.Slots[slots[i]] = query.ValueEntry(keyVals[gi*nk+i])
		}
		for i, ag := range a.Aggs {
			acc := accs[gi*na+i]
			var v model.Value
			switch fns[i] {
			case aggCount:
				v = model.Int(int64(n))
			case aggSum:
				v = model.Float(acc.sum)
			case aggAvg:
				if acc.count == 0 {
					v = model.Null()
				} else {
					v = model.Float(acc.sum / float64(acc.count))
				}
			case aggMin, aggMax:
				v = extremes[gi*ne+ext[i]]
			default:
				return fmt.Errorf("unknown aggregate %q", ag.Fn)
			}
			out.Slots[slots[nk+i]] = query.ValueEntry(v)
		}
		if err := emit(out); err != nil {
			return err
		}
	}
	return nil
}

// String implements Op.
func (a *Aggregate) String() string {
	return fmt.Sprintf("%s -> Aggregate(%d aggs)", a.Child, len(a.Aggs))
}

// --- OrderBy / Limit / Distinct ---

// OrderKey is one sort key.
type OrderKey struct {
	Expr query.Expr
	Desc bool
}

// OrderBy materializes and sorts rows; ties keep arrival order. With TopK
// > 0 only the first TopK rows of that order are needed — applyModifiers
// sets it to Offset+Limit from the query text — so OrderBy keeps them in a
// bounded heap instead of sorting every row. The heap orders by (keys,
// arrival), which is what makes it return exactly the stable sort's prefix.
type OrderBy struct {
	Child Op
	Keys  []OrderKey
	TopK  int // 0 = all rows
}

// sortItem is one kept row with its evaluated keys and arrival number.
type sortItem struct {
	row  query.Row
	keys []model.Value
	seq  int
}

// before reports whether a sorts before b: by keys, then by arrival.
func (o *OrderBy) before(a, b *sortItem) bool {
	for k := range o.Keys {
		c := a.keys[k].Compare(b.keys[k])
		if c == 0 {
			continue
		}
		if o.Keys[k].Desc {
			return c > 0
		}
		return c < 0
	}
	return a.seq < b.seq
}

// siftDown restores the heap below i, where every parent sorts after its
// children, so h[0] is the last of the kept rows.
func (o *OrderBy) siftDown(h []sortItem, i int) {
	for {
		last := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && o.before(&h[last], &h[c]) {
				last = c
			}
		}
		if last == i {
			return
		}
		h[i], h[last] = h[last], h[i]
		i = last
	}
}

// Run implements Op.
func (o *OrderBy) Run(src Source, emit func(query.Row) error) error {
	var items []sortItem
	cand := sortItem{keys: make([]model.Value, len(o.Keys))}
	err := o.Child.Run(src, func(row query.Row) error {
		for i, k := range o.Keys {
			v, err := k.Expr.Eval(row)
			if err != nil {
				return err
			}
			cand.keys[i] = v
		}
		cand.seq++
		if o.TopK <= 0 || len(items) < o.TopK {
			items = append(items, sortItem{row: row.Clone(), keys: append([]model.Value(nil), cand.keys...), seq: cand.seq})
			if len(items) == o.TopK {
				for i := len(items)/2 - 1; i >= 0; i-- {
					o.siftDown(items, i)
				}
			}
			return nil
		}
		// Full: the row replaces the last kept one if it sorts before it,
		// reusing that item's buffers.
		if !o.before(&cand, &items[0]) {
			return nil
		}
		last := &items[0]
		last.row = query.Row{Layout: row.Layout, Slots: append(last.row.Slots[:0], row.Slots...)}
		copy(last.keys, cand.keys)
		last.seq = cand.seq
		o.siftDown(items, 0)
		return nil
	})
	if err != nil {
		return err
	}
	sort.Slice(items, func(i, j int) bool { return o.before(&items[i], &items[j]) })
	for i := range items {
		if err := emit(items[i].row); err != nil {
			return err
		}
	}
	return nil
}

// String implements Op.
func (o *OrderBy) String() string { return fmt.Sprintf("%s -> OrderBy(%d keys)", o.Child, len(o.Keys)) }

// Limit passes through at most N rows after skipping Offset.
type Limit struct {
	Child  Op
	N      int
	Offset int
}

// Run implements Op.
func (l *Limit) Run(src Source, emit func(query.Row) error) error {
	seen, sent := 0, 0
	err := l.Child.Run(src, func(row query.Row) error {
		seen++
		if seen <= l.Offset {
			return nil
		}
		if l.N >= 0 && sent >= l.N {
			return errStop
		}
		sent++
		if err := emit(row); err != nil {
			return err
		}
		if l.N >= 0 && sent >= l.N {
			return errStop
		}
		return nil
	})
	if err == errStop {
		return nil
	}
	return err
}

// String implements Op.
func (l *Limit) String() string { return fmt.Sprintf("%s -> Limit(%d, %d)", l.Child, l.Offset, l.N) }

// Distinct suppresses duplicate rows, keyed by the scalar encoding of every
// slot. All rows reaching one Distinct come from one producer and so share
// one layout, which makes slot order a consistent key order.
type Distinct struct {
	Child Op
}

// Run implements Op.
func (d *Distinct) Run(src Source, emit func(query.Row) error) error {
	seen := map[string]bool{}
	var kb []byte
	return d.Child.Run(src, func(row query.Row) error {
		kb = kb[:0]
		for _, e := range row.Slots {
			kb = e.Scalar().EncodeKey(kb)
			kb = append(kb, 0xFF)
		}
		if seen[string(kb)] {
			return nil
		}
		seen[string(kb)] = true
		return emit(row)
	})
}

// String implements Op.
func (d *Distinct) String() string { return d.Child.String() + " -> Distinct" }
