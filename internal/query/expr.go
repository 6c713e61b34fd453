package query

import (
	"fmt"
	"strconv"
	"strings"

	"gdbm/internal/model"
)

// Entry is one binding in a row: a node, an edge, or a scalar value.
type Entry struct {
	Kind  EntryKind
	Node  model.Node
	Edge  model.Edge
	Value model.Value
}

// EntryKind discriminates Entry.
type EntryKind uint8

const (
	// EntryUnset marks a row slot no operator has bound (the zero Entry).
	EntryUnset EntryKind = iota
	EntryValue
	EntryNode
	EntryEdge
)

// NodeEntry wraps a node binding.
func NodeEntry(n model.Node) Entry { return Entry{Kind: EntryNode, Node: n} }

// EdgeEntry wraps an edge binding.
func EdgeEntry(e model.Edge) Entry { return Entry{Kind: EntryEdge, Edge: e} }

// ValueEntry wraps a scalar binding.
func ValueEntry(v model.Value) Entry { return Entry{Kind: EntryValue, Value: v} }

// Scalar reduces the entry to a value: nodes and edges reduce to their IDs.
func (e Entry) Scalar() model.Value {
	switch e.Kind {
	case EntryNode:
		return model.Int(int64(e.Node.ID))
	case EntryEdge:
		return model.Int(int64(e.Edge.ID))
	default:
		return e.Value
	}
}

// Prop resolves a property access against the entry.
func (e Entry) Prop(name string) model.Value {
	switch e.Kind {
	case EntryNode:
		return e.Node.Props.Get(name)
	case EntryEdge:
		return e.Edge.Props.Get(name)
	default:
		return model.Null()
	}
}

// Layout names the slots of a row. A plan fixes its layouts when it
// compiles: one for the pattern variables, one for each projection's output
// columns. A Layout is immutable once built, so rows share it freely.
type Layout struct{ names []string }

// NewLayout builds a layout with one slot per distinct name, in order.
func NewLayout(names ...string) *Layout { return (*Layout)(nil).With(names...) }

// With returns a layout extending l with the names it lacks, in order; l
// itself when it already has them all. A nil l is the empty layout.
func (l *Layout) With(names ...string) *Layout {
	var out *Layout
	for _, n := range names {
		if l.Slot(n) >= 0 || out.Slot(n) >= 0 {
			continue
		}
		if out == nil {
			out = &Layout{names: append(make([]string, 0, len(l.Names())+len(names)), l.Names()...)}
		}
		out.names = append(out.names, n)
	}
	if out == nil {
		return l
	}
	return out
}

// Names lists the slot names in slot order.
func (l *Layout) Names() []string {
	if l == nil {
		return nil
	}
	return l.names
}

// Slot returns the slot index of name, or -1. Layouts hold a handful of
// names, so a scan beats hashing.
func (l *Layout) Slot(name string) int {
	if l == nil {
		return -1
	}
	for i, n := range l.names {
		if n == name {
			return i
		}
	}
	return -1
}

// Row is the binding environment flowing through query operators: one
// fixed-width slot per name of its Layout. The zero Row binds nothing.
type Row struct {
	Layout *Layout
	Slots  []Entry
}

// NewRow returns a row of l with every slot unset.
func NewRow(l *Layout) Row {
	return Row{Layout: l, Slots: make([]Entry, len(l.Names()))}
}

// Get returns the binding of name; ok is false when the layout has no such
// slot or the slot is unset.
func (r Row) Get(name string) (e Entry, ok bool) {
	i := r.Layout.Slot(name)
	if i < 0 || r.Slots[i].Kind == EntryUnset {
		return Entry{}, false
	}
	return r.Slots[i], true
}

// Set binds name, which the layout must have; it reports whether it did.
func (r Row) Set(name string, e Entry) bool {
	i := r.Layout.Slot(name)
	if i < 0 {
		return false
	}
	r.Slots[i] = e
	return true
}

// Clone copies the row's slots; the layout is shared.
func (r Row) Clone() Row {
	return Row{Layout: r.Layout, Slots: append([]Entry(nil), r.Slots...)}
}

// Expr is an evaluable expression over a Row.
type Expr interface {
	Eval(r Row) (model.Value, error)
	String() string
}

// Lit is a literal value.
type Lit struct{ V model.Value }

// Eval implements Expr.
func (l Lit) Eval(Row) (model.Value, error) { return l.V, nil }

// String implements Expr.
func (l Lit) String() string {
	if l.V.Kind() == model.KindString {
		return strconv.Quote(l.V.String())
	}
	return l.V.String()
}

// Var references a binding; with Prop set it accesses a property.
type Var struct {
	Name string
	Prop string
}

// Eval implements Expr.
func (v Var) Eval(r Row) (model.Value, error) {
	e, ok := r.Get(v.Name)
	if !ok {
		return model.Null(), fmt.Errorf("unbound variable %q", v.Name)
	}
	if v.Prop != "" {
		return e.Prop(v.Prop), nil
	}
	return e.Scalar(), nil
}

// String implements Expr.
func (v Var) String() string {
	if v.Prop != "" {
		return v.Name + "." + v.Prop
	}
	return v.Name
}

// BinOp applies a binary operator.
type BinOp struct {
	Op   string // = <> < <= > >= + - * / and or
	L, R Expr
}

// Eval implements Expr.
func (b BinOp) Eval(r Row) (model.Value, error) {
	lv, err := b.L.Eval(r)
	if err != nil {
		return model.Null(), err
	}
	// Short-circuit boolean operators.
	switch b.Op {
	case "and":
		if lb, ok := lv.AsBool(); ok && !lb {
			return model.Bool(false), nil
		}
		rv, err := b.R.Eval(r)
		if err != nil {
			return model.Null(), err
		}
		lb, lok := lv.AsBool()
		rb, rok := rv.AsBool()
		if !lok || !rok {
			return model.Null(), fmt.Errorf("AND requires booleans, got %v and %v", lv.Kind(), rv.Kind())
		}
		return model.Bool(lb && rb), nil
	case "or":
		if lb, ok := lv.AsBool(); ok && lb {
			return model.Bool(true), nil
		}
		rv, err := b.R.Eval(r)
		if err != nil {
			return model.Null(), err
		}
		lb, lok := lv.AsBool()
		rb, rok := rv.AsBool()
		if !lok || !rok {
			return model.Null(), fmt.Errorf("OR requires booleans, got %v and %v", lv.Kind(), rv.Kind())
		}
		return model.Bool(lb || rb), nil
	}
	rv, err := b.R.Eval(r)
	if err != nil {
		return model.Null(), err
	}
	switch b.Op {
	case "=":
		return model.Bool(lv.Equal(rv)), nil
	case "<>", "!=":
		return model.Bool(!lv.Equal(rv)), nil
	case "<":
		return model.Bool(lv.Compare(rv) < 0), nil
	case "<=":
		return model.Bool(lv.Compare(rv) <= 0), nil
	case ">":
		return model.Bool(lv.Compare(rv) > 0), nil
	case ">=":
		return model.Bool(lv.Compare(rv) >= 0), nil
	case "+", "-", "*", "/":
		return arith(b.Op, lv, rv)
	}
	return model.Null(), fmt.Errorf("unknown operator %q", b.Op)
}

func arith(op string, a, b model.Value) (model.Value, error) {
	if op == "+" && (a.Kind() == model.KindString || b.Kind() == model.KindString) {
		return model.Str(a.String() + b.String()), nil
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if !aok || !bok {
		return model.Null(), fmt.Errorf("arithmetic on non-numeric values %v, %v", a, b)
	}
	var f float64
	switch op {
	case "+":
		f = af + bf
	case "-":
		f = af - bf
	case "*":
		f = af * bf
	case "/":
		if bf == 0 {
			return model.Null(), fmt.Errorf("division by zero")
		}
		f = af / bf
	}
	// Keep integer arithmetic integral.
	ai, aInt := a.AsInt()
	bi, bInt := b.AsInt()
	if aInt && bInt && op != "/" {
		switch op {
		case "+":
			return model.Int(ai + bi), nil
		case "-":
			return model.Int(ai - bi), nil
		case "*":
			return model.Int(ai * bi), nil
		}
	}
	return model.Float(f), nil
}

// String implements Expr.
func (b BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Not negates a boolean expression.
type Not struct{ E Expr }

// Eval implements Expr.
func (n Not) Eval(r Row) (model.Value, error) {
	v, err := n.E.Eval(r)
	if err != nil {
		return model.Null(), err
	}
	b, ok := v.AsBool()
	if !ok {
		return model.Null(), fmt.Errorf("NOT requires a boolean, got %v", v.Kind())
	}
	return model.Bool(!b), nil
}

// String implements Expr.
func (n Not) String() string { return "(not " + n.E.String() + ")" }

// Neg is arithmetic negation.
type Neg struct{ E Expr }

// Eval implements Expr.
func (n Neg) Eval(r Row) (model.Value, error) {
	v, err := n.E.Eval(r)
	if err != nil {
		return model.Null(), err
	}
	if i, ok := v.AsInt(); ok {
		return model.Int(-i), nil
	}
	if f, ok := v.AsFloat(); ok {
		return model.Float(-f), nil
	}
	return model.Null(), fmt.Errorf("negation of non-numeric %v", v)
}

// String implements Expr.
func (n Neg) String() string { return "(-" + n.E.String() + ")" }

// Call invokes a scalar builtin. Aggregates are handled by the Aggregate
// operator, not here.
type Call struct {
	Fn   string
	Args []Expr
}

// Eval implements Expr.
func (c Call) Eval(r Row) (model.Value, error) {
	args := make([]model.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := a.Eval(r)
		if err != nil {
			return model.Null(), err
		}
		args[i] = v
	}
	switch strings.ToLower(c.Fn) {
	case "id":
		// id(x) — the identifier of a bound node/edge; Var.Eval already
		// reduces entities to IDs, so this is identity on its arg.
		if len(args) != 1 {
			return model.Null(), fmt.Errorf("id() takes 1 argument")
		}
		return args[0], nil
	case "length", "len":
		if len(args) != 1 {
			return model.Null(), fmt.Errorf("length() takes 1 argument")
		}
		if s, ok := args[0].AsString(); ok {
			return model.Int(int64(len(s))), nil
		}
		return model.Null(), fmt.Errorf("length() requires a string")
	case "lower":
		if s, ok := args[0].AsString(); ok && len(args) == 1 {
			return model.Str(strings.ToLower(s)), nil
		}
		return model.Null(), fmt.Errorf("lower() requires a string")
	case "upper":
		if s, ok := args[0].AsString(); ok && len(args) == 1 {
			return model.Str(strings.ToUpper(s)), nil
		}
		return model.Null(), fmt.Errorf("upper() requires a string")
	case "abs":
		if i, ok := args[0].AsInt(); ok && len(args) == 1 {
			if i < 0 {
				return model.Int(-i), nil
			}
			return model.Int(i), nil
		}
		if f, ok := args[0].AsFloat(); ok && len(args) == 1 {
			if f < 0 {
				return model.Float(-f), nil
			}
			return model.Float(f), nil
		}
		return model.Null(), fmt.Errorf("abs() requires a number")
	case "coalesce":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return model.Null(), nil
	}
	return model.Null(), fmt.Errorf("unknown function %q", c.Fn)
}

// String implements Expr.
func (c Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Fn + "(" + strings.Join(parts, ", ") + ")"
}

// AggFuncs names the aggregate functions recognized by parsers; expressions
// with these heads are routed to the Aggregate operator.
var AggFuncs = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}
