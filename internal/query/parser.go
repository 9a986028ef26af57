package query

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is a parsed query expression. Call Bind against a schema before
// evaluating it; Parse performs only syntactic checks.
type Expr interface {
	// String renders the expression canonically.
	String() string
}

// BinaryExpr is an AND/OR of two subexpressions.
type BinaryExpr struct {
	Op          string // "AND" or "OR"
	Left, Right Expr
}

// String implements Expr.
func (e *BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.Left, e.Op, e.Right)
}

// NotExpr negates a subexpression.
type NotExpr struct {
	Inner Expr
}

// String implements Expr.
func (e *NotExpr) String() string { return fmt.Sprintf("(NOT %s)", e.Inner) }

// CompareExpr compares an attribute against a literal.
type CompareExpr struct {
	Attr string
	Op   string // = != < <= > >=
	// Exactly one of Str / Num is meaningful, per IsString.
	IsString bool
	Str      string
	Num      float64
}

// String implements Expr.
func (e *CompareExpr) String() string {
	if e.IsString {
		return fmt.Sprintf("%s %s '%s'", e.Attr, e.Op, e.Str)
	}
	return fmt.Sprintf("%s %s %s", e.Attr, e.Op, strconv.FormatFloat(e.Num, 'f', -1, 64))
}

// InExpr tests membership of an attribute in a literal list.
type InExpr struct {
	Attr    string
	Strs    []string
	Nums    []float64
	Numeric bool
}

// String implements Expr.
func (e *InExpr) String() string {
	parts := make([]string, 0, len(e.Strs)+len(e.Nums))
	if e.Numeric {
		for _, n := range e.Nums {
			parts = append(parts, strconv.FormatFloat(n, 'f', -1, 64))
		}
	} else {
		for _, s := range e.Strs {
			parts = append(parts, "'"+s+"'")
		}
	}
	return fmt.Sprintf("%s IN (%s)", e.Attr, strings.Join(parts, ", "))
}

// Parse parses a query string into an expression tree.
func Parse(input string) (Expr, error) {
	if strings.TrimSpace(input) == "" {
		return nil, fmt.Errorf("query: empty query")
	}
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("query: unexpected %s at position %d", p.peek().kind, p.peek().pos)
	}
	return e, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) expect(kind tokenKind) (token, error) {
	t := p.peek()
	if t.kind != kind {
		return t, fmt.Errorf("query: expected %s but found %s at position %d", kind, t.kind, t.pos)
	}
	return p.next(), nil
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOr {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokAnd {
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	switch p.peek().kind {
	case tokNot:
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &NotExpr{Inner: inner}, nil
	case tokLParen:
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return p.parseComparison()
	}
}

func (p *parser) parseComparison() (Expr, error) {
	ident, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	switch p.peek().kind {
	case tokOp:
		op := p.next()
		switch p.peek().kind {
		case tokString:
			v := p.next()
			if op.text != "=" && op.text != "!=" {
				return nil, fmt.Errorf("query: operator %s not valid for strings at position %d", op.text, op.pos)
			}
			return &CompareExpr{Attr: ident.text, Op: op.text, IsString: true, Str: v.text}, nil
		case tokNumber:
			v := p.next()
			f, err := strconv.ParseFloat(v.text, 64)
			if err != nil {
				return nil, fmt.Errorf("query: bad number %q at position %d", v.text, v.pos)
			}
			return &CompareExpr{Attr: ident.text, Op: op.text, Num: f}, nil
		default:
			return nil, fmt.Errorf("query: expected a value after %s at position %d", op.text, p.peek().pos)
		}
	case tokIn:
		p.next()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		in := &InExpr{Attr: ident.text}
		first := true
		for {
			switch p.peek().kind {
			case tokString:
				if !first && in.Numeric {
					return nil, fmt.Errorf("query: mixed string and number in IN list at position %d", p.peek().pos)
				}
				in.Strs = append(in.Strs, p.next().text)
			case tokNumber:
				if !first && !in.Numeric {
					return nil, fmt.Errorf("query: mixed string and number in IN list at position %d", p.peek().pos)
				}
				in.Numeric = true
				v := p.next()
				f, err := strconv.ParseFloat(v.text, 64)
				if err != nil {
					return nil, fmt.Errorf("query: bad number %q at position %d", v.text, v.pos)
				}
				in.Nums = append(in.Nums, f)
			default:
				return nil, fmt.Errorf("query: expected a value in IN list at position %d", p.peek().pos)
			}
			first = false
			if p.peek().kind == tokComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return in, nil
	default:
		return nil, fmt.Errorf("query: expected an operator or IN after %q at position %d", ident.text, p.peek().pos)
	}
}
