// Package partition implements the partitioning machinery of the paper:
// partitions of workers defined by protected-attribute constraints, the
// split operation the algorithms are built from, and the size of the
// hierarchical partitioning space (exponential — the reason the paper's
// brute-force solver never terminated).
package partition

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"fairrank/internal/dataset"
)

// Constraint pins one protected attribute (by schema index) to one of its
// partitioning values (category index or numeric bucket index).
type Constraint struct {
	Attr  int
	Value int
}

// Partition is a group of workers selected by a conjunction of constraints
// on protected attributes — or, for partitions produced by merging cells
// (core's exhaustive-cells solver), an explicitly named union of such
// groups. Indices are row numbers into the dataset.
type Partition struct {
	// Constraints defining the partition, in split order. Empty for the
	// root and for named unions.
	Constraints []Constraint
	// Name overrides the constraint-derived identity for partitions that
	// are not conjunctions (e.g. merged cell blocks). When set, Key and
	// Label use it directly.
	Name string
	// Indices of the workers in the partition.
	Indices []int
}

// Root returns the partition containing every worker, with no constraints.
func Root(ds *dataset.Dataset) *Partition {
	return &Partition{Indices: ds.AllIndices()}
}

// Size returns the number of workers in the partition.
func (p *Partition) Size() int { return len(p.Indices) }

// Key returns a canonical identity for the partition's constraint set,
// independent of split order. Two partitions of the same dataset with equal
// keys contain exactly the same workers.
func (p *Partition) Key() string {
	if p.Name != "" {
		return "name:" + p.Name
	}
	if len(p.Constraints) == 0 {
		return "*"
	}
	cs := make([]Constraint, len(p.Constraints))
	copy(cs, p.Constraints)
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Attr != cs[j].Attr {
			return cs[i].Attr < cs[j].Attr
		}
		return cs[i].Value < cs[j].Value
	})
	var b strings.Builder
	for i, c := range cs {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%d=%d", c.Attr, c.Value)
	}
	return b.String()
}

// Label renders the partition's constraints human-readably, e.g.
// "Gender=Male ∧ Language=English", or "ALL" for the root. Named unions
// render as their name.
func (p *Partition) Label(schema *dataset.Schema) string {
	if p.Name != "" {
		return p.Name
	}
	if len(p.Constraints) == 0 {
		return "ALL"
	}
	parts := make([]string, len(p.Constraints))
	for i, c := range p.Constraints {
		a := schema.Protected[c.Attr]
		parts[i] = fmt.Sprintf("%s=%s", a.Name, a.ValueLabel(c.Value))
	}
	return strings.Join(parts, " ∧ ")
}

// Split divides p into one child per value of protected attribute attr that
// actually occurs among p's workers, in ascending value order. Children
// inherit p's constraints plus the new one. Empty children are not
// returned; the union of the children is exactly p.
func Split(ds *dataset.Dataset, p *Partition, attr int) []*Partition {
	// One column fetch, then pure slice indexing: the scans read the
	// attribute's code block directly (mapped bytes for snapshot-backed
	// datasets) instead of paying a per-row accessor call.
	return SplitCodes(ds.CodeColumn(attr), ds.Schema().Protected[attr].Cardinality(), p, attr)
}

// SplitCodes is Split over an explicit code column: p's Indices are rows
// of codes, row i is bucketed under codes[i] (which must be below card),
// and the children are constrained on attr. It lets callers split row
// spaces other than a dataset's workers — the engine's weighted (cell,
// bin) rows — with the same child order and layout.
//
// The children's index slices are carved from one backing array of
// exactly len(p.Indices) rows: a counting pass sizes each value's range,
// and the scatter writes every row straight into place, in p's order, so
// no child grows by append. Each child is capacity-capped at its own end,
// so an append to one child reallocates instead of writing into its
// sibling.
func SplitCodes(codes []uint16, card int, p *Partition, attr int) []*Partition {
	// end[v] is value v's next free slot: it starts at the range's first
	// slot and, once the scatter is done, sits at the range's end.
	end := make([]int, card)
	for _, i := range p.Indices {
		end[codes[i]]++
	}
	start := 0
	for v, n := range end {
		end[v] = start
		start += n
	}
	backing := make([]int, len(p.Indices))
	for _, i := range p.Indices {
		c := codes[i]
		backing[end[c]] = i
		end[c]++
	}
	var out []*Partition
	lo := 0
	for v, hi := range end {
		if hi == lo {
			continue
		}
		cons := make([]Constraint, len(p.Constraints)+1)
		copy(cons, p.Constraints)
		cons[len(cons)-1] = Constraint{Attr: attr, Value: v}
		out = append(out, &Partition{Constraints: cons, Indices: backing[lo:hi:hi]})
		lo = hi
	}
	return out
}

// SplitAll splits every partition in parts on attr and returns the combined
// children. Partitions in which attr has a single value survive as their
// sole child (with the extra constraint attached).
func SplitAll(ds *dataset.Dataset, parts []*Partition, attr int) []*Partition {
	var out []*Partition
	for _, p := range parts {
		out = append(out, Split(ds, p, attr)...)
	}
	return out
}

// Partitioning is a full disjoint partitioning of the dataset: the parts
// are pairwise disjoint and their union is all workers (Definition 1's
// constraints).
type Partitioning struct {
	Parts []*Partition
}

// Size returns the number of partitions.
func (pt *Partitioning) Size() int { return len(pt.Parts) }

// Validate checks the full-disjoint-cover invariant against the dataset.
func (pt *Partitioning) Validate(ds *dataset.Dataset) error {
	if pt == nil || len(pt.Parts) == 0 {
		return errors.New("partition: empty partitioning")
	}
	seen := make([]bool, ds.N())
	total := 0
	for _, p := range pt.Parts {
		for _, i := range p.Indices {
			if i < 0 || i >= ds.N() {
				return fmt.Errorf("partition: index %d out of range", i)
			}
			if seen[i] {
				return fmt.Errorf("partition: worker %d appears in two partitions", i)
			}
			seen[i] = true
			total++
		}
	}
	if total != ds.N() {
		return fmt.Errorf("partition: %d of %d workers covered", total, ds.N())
	}
	return nil
}

// Describe renders each partition as "label (n=size)", sorted by label, one
// per line — the form used in reports and examples.
func (pt *Partitioning) Describe(schema *dataset.Schema) string {
	lines := make([]string, len(pt.Parts))
	for i, p := range pt.Parts {
		lines[i] = fmt.Sprintf("%s (n=%d)", p.Label(schema), p.Size())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// AttributesUsed returns the sorted set of protected attribute indices that
// appear in any partition's constraints.
func (pt *Partitioning) AttributesUsed() []int {
	set := map[int]bool{}
	for _, p := range pt.Parts {
		for _, c := range p.Constraints {
			set[c.Attr] = true
		}
	}
	out := make([]int, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}
