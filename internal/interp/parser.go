package interp

import "slices"

// Recursive-descent parser producing a statement list from the token
// stream. Expression parsing uses precedence climbing.

// maxNesting bounds how deep the parser nests, and with it the tree it
// builds, so that its recursion and the compiler's and the oracle's over
// that tree stay far inside Go's stack. Each bracket, block, expression,
// unary or elif link, and binary or postfix operator wrapping what came
// before it (a left-deep chain is as deep as a nested one) is a level.
// CPython stops at 200 brackets.
const maxNesting = 200

type parser struct {
	toks  []token
	pos   int
	loops int // enclosing while/for bodies in the current def (or top level)
	depth int // levels entered on the way to the current token
}

// nest enters one more level, failing past maxNesting.
func (p *parser) nest() error {
	if p.depth++; p.depth > maxNesting {
		return syntaxErrf(p.cur().line, "nesting exceeds %d levels", maxNesting)
	}
	return nil
}

// restore leaves the levels entered since depth was d.
func (p *parser) restore(d int) { p.depth = d }

// Parse compiles source text into a program (list of statements).
func Parse(src string) ([]stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var prog []stmt
	for !p.at(tokEOF) {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		prog = append(prog, s)
	}
	return prog, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokenKind) bool { return p.cur().kind == kind }

func (p *parser) atOp(text string) bool {
	return p.cur().kind == tokOp && p.cur().text == text
}

func (p *parser) atKw(text string) bool {
	return p.cur().kind == tokKeyword && p.cur().text == text
}

func (p *parser) expectOp(text string) error {
	if !p.atOp(text) {
		return syntaxErrf(p.cur().line, "expected %q, got %s", text, p.cur())
	}
	p.pos++
	return nil
}

func (p *parser) expectNewline() error {
	if !p.at(tokNewline) {
		return syntaxErrf(p.cur().line, "expected end of statement, got %s", p.cur())
	}
	p.pos++
	return nil
}

// items parses comma-separated items of a call, list or dict (what) up to
// close, and consumes close.
func (p *parser) items(close, what string, item func() error) error {
	for !p.atOp(close) {
		if err := item(); err != nil {
			return err
		}
		if p.atOp(",") {
			p.pos++
		} else if !p.atOp(close) {
			return syntaxErrf(p.cur().line, "expected ',' or '%s' in %s", close, what)
		}
	}
	p.pos++
	return nil
}

// loopBody parses a while/for body, inside which break and continue are
// legal.
func (p *parser) loopBody() ([]stmt, error) {
	p.loops++
	body, err := p.block()
	p.loops--
	return body, err
}

// block parses ":" NEWLINE INDENT stmt+ DEDENT.
func (p *parser) block() ([]stmt, error) {
	defer p.restore(p.depth)
	if err := p.nest(); err != nil {
		return nil, err
	}
	if err := p.expectOp(":"); err != nil {
		return nil, err
	}
	if err := p.expectNewline(); err != nil {
		return nil, err
	}
	if !p.at(tokIndent) {
		return nil, syntaxErrf(p.cur().line, "expected indented block")
	}
	p.pos++
	var body []stmt
	for !p.at(tokDedent) && !p.at(tokEOF) {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		body = append(body, s)
	}
	if p.at(tokDedent) {
		p.pos++
	}
	return body, nil
}

func (p *parser) statement() (stmt, error) {
	t := p.cur()
	if t.kind == tokKeyword {
		switch t.text {
		case "if":
			return p.ifStatement()
		case "while":
			p.pos++
			cond, err := p.expression()
			if err != nil {
				return nil, err
			}
			body, err := p.loopBody()
			if err != nil {
				return nil, err
			}
			return &whileStmt{line: t.line, cond: cond, body: body}, nil
		case "for":
			p.pos++
			if !p.at(tokIdent) {
				return nil, syntaxErrf(t.line, "expected loop variable")
			}
			name := p.next().text
			if !p.atKw("in") {
				return nil, syntaxErrf(t.line, "expected 'in'")
			}
			p.pos++
			iter, err := p.expression()
			if err != nil {
				return nil, err
			}
			body, err := p.loopBody()
			if err != nil {
				return nil, err
			}
			return &forStmt{line: t.line, name: name, iter: iter, body: body}, nil
		case "def":
			return p.defStatement()
		case "return":
			p.pos++
			var value expr
			if !p.at(tokNewline) {
				v, err := p.expression()
				if err != nil {
					return nil, err
				}
				value = v
			}
			if err := p.expectNewline(); err != nil {
				return nil, err
			}
			return &returnStmt{line: t.line, value: value}, nil
		case "break", "continue":
			// As in Python, a loop-control statement outside a loop is a
			// syntax error, not a silent end of the enclosing block.
			if p.loops == 0 {
				return nil, syntaxErrf(t.line, "%q outside loop", t.text)
			}
			p.pos++
			if err := p.expectNewline(); err != nil {
				return nil, err
			}
			if t.text == "break" {
				return &breakStmt{line: t.line}, nil
			}
			return &continueStmt{line: t.line}, nil
		case "pass":
			p.pos++
			if err := p.expectNewline(); err != nil {
				return nil, err
			}
			return &passStmt{line: t.line}, nil
		case "try":
			p.pos++
			body, err := p.block()
			if err != nil {
				return nil, err
			}
			if !p.atKw("except") {
				return nil, syntaxErrf(t.line, "try without except")
			}
			p.pos++
			name := ""
			if p.atKw("as") {
				p.pos++
				if !p.at(tokIdent) {
					return nil, syntaxErrf(p.cur().line, "expected name after 'as'")
				}
				name = p.next().text
			}
			handler, err := p.block()
			if err != nil {
				return nil, err
			}
			return &tryStmt{line: t.line, body: body, name: name, handler: handler}, nil
		case "raise":
			p.pos++
			msg, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectNewline(); err != nil {
				return nil, err
			}
			return &raiseStmt{line: t.line, msg: msg}, nil
		case "del":
			p.pos++
			target, err := p.expression()
			if err != nil {
				return nil, err
			}
			ix, ok := target.(*indexExpr)
			if !ok {
				return nil, syntaxErrf(t.line, "del requires an index target")
			}
			if err := p.expectNewline(); err != nil {
				return nil, err
			}
			return &delStmt{line: t.line, target: ix}, nil
		}
	}

	// Expression or assignment.
	e, err := p.expression()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokOp {
		switch p.cur().text {
		case "=", "+=", "-=", "*=", "%=":
			op := p.next().text
			if !assignable(e) {
				return nil, syntaxErrf(t.line, "cannot assign to this expression")
			}
			value, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectNewline(); err != nil {
				return nil, err
			}
			return &assignStmt{line: t.line, target: e, op: op, value: value}, nil
		}
	}
	if err := p.expectNewline(); err != nil {
		return nil, err
	}
	return &exprStmt{line: t.line, e: e}, nil
}

func assignable(e expr) bool {
	switch e.(type) {
	case *identExpr, *indexExpr:
		return true
	}
	return false
}

func (p *parser) ifStatement() (stmt, error) {
	t := p.next() // if / elif
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	node := &ifStmt{line: t.line, cond: cond, body: body}
	switch {
	case p.atKw("elif"):
		defer p.restore(p.depth)
		if err := p.nest(); err != nil {
			return nil, err
		}
		nested, err := p.ifStatement()
		if err != nil {
			return nil, err
		}
		node.orelse = []stmt{nested}
	case p.atKw("else"):
		p.pos++
		orelse, err := p.block()
		if err != nil {
			return nil, err
		}
		node.orelse = orelse
	}
	return node, nil
}

func (p *parser) defStatement() (stmt, error) {
	t := p.next() // def
	if !p.at(tokIdent) {
		return nil, syntaxErrf(t.line, "expected function name")
	}
	name := p.next().text
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var params []string
	for !p.atOp(")") {
		if !p.at(tokIdent) {
			return nil, syntaxErrf(p.cur().line, "expected parameter name")
		}
		params = append(params, p.next().text)
		if p.atOp(",") {
			p.pos++
		}
	}
	p.pos++ // ")"
	// A def body starts outside any loop, even when the def sits in one.
	outer := p.loops
	p.loops = 0
	body, err := p.block()
	p.loops = outer
	if err != nil {
		return nil, err
	}
	return &defStmt{line: t.line, name: name, params: params, body: body}, nil
}

// --- expressions (precedence climbing) --------------------------------------

func (p *parser) expression() (expr, error) {
	defer p.restore(p.depth)
	if err := p.nest(); err != nil {
		return nil, err
	}
	return p.orExpr()
}

func (p *parser) orExpr() (expr, error)  { return p.chain(p.andExpr, "or") }
func (p *parser) andExpr() (expr, error) { return p.chain(p.notExpr, "and") }
func (p *parser) addExpr() (expr, error) { return p.chain(p.mulExpr, "+", "-") }
func (p *parser) mulExpr() (expr, error) { return p.chain(p.unary, "*", "/", "//", "%") }
func (p *parser) comparison() (expr, error) {
	return p.chain(p.addExpr, "==", "!=", "<", "<=", ">", ">=", "in", "not")
}

// chain parses a left-associative run of operands joined by any of ops;
// "not" joins only as "not in".
func (p *parser) chain(operand func() (expr, error), ops ...string) (expr, error) {
	defer p.restore(p.depth)
	lhs, err := operand()
	if err != nil {
		return nil, err
	}
	for t := p.cur(); (t.kind == tokOp || t.kind == tokKeyword) && slices.Contains(ops, t.text); t = p.cur() {
		notIn := t.text == "not"
		if notIn && (p.toks[p.pos+1].kind != tokKeyword || p.toks[p.pos+1].text != "in") {
			break
		}
		if err := p.nest(); err != nil {
			return nil, err
		}
		if p.pos++; notIn {
			p.pos++ // in
		}
		rhs, err := operand()
		if err != nil {
			return nil, err
		}
		op := t.text
		switch op {
		case "/":
			op = "//" // integer-only language: / is floor division
		case "not":
			op = "in"
		}
		lhs = &binaryExpr{line: t.line, op: op, lhs: lhs, rhs: rhs}
		if notIn {
			lhs = &unaryExpr{line: t.line, op: "not", rhs: lhs}
		}
	}
	return lhs, nil
}

func (p *parser) notExpr() (expr, error) {
	if p.atKw("not") {
		defer p.restore(p.depth)
		if err := p.nest(); err != nil {
			return nil, err
		}
		line := p.next().line
		rhs, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{line: line, op: "not", rhs: rhs}, nil
	}
	return p.comparison()
}

func (p *parser) unary() (expr, error) {
	if p.atOp("-") {
		defer p.restore(p.depth)
		if err := p.nest(); err != nil {
			return nil, err
		}
		line := p.next().line
		rhs, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{line: line, op: "-", rhs: rhs}, nil
	}
	return p.postfix()
}

// postfix parses a primary followed by call/index/attribute suffixes.
func (p *parser) postfix() (expr, error) {
	defer p.restore(p.depth)
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		if !p.atOp("(") && !p.atOp("[") && !p.atOp(".") {
			return e, nil
		}
		if err := p.nest(); err != nil {
			return nil, err
		}
		switch {
		case p.atOp("("):
			line := p.next().line
			var args []expr
			if err := p.items(")", "call", func() error {
				a, err := p.expression()
				args = append(args, a)
				return err
			}); err != nil {
				return nil, err
			}
			e = &callExpr{line: line, fn: e, args: args}
		case p.atOp("["):
			line := p.next().line
			var lo, hi expr
			isSlice := false
			if !p.atOp(":") {
				v, err := p.expression()
				if err != nil {
					return nil, err
				}
				lo = v
			}
			if p.atOp(":") {
				isSlice = true
				p.pos++
				if !p.atOp("]") {
					v, err := p.expression()
					if err != nil {
						return nil, err
					}
					hi = v
				}
			}
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
			if isSlice {
				e = &sliceExpr{line: line, base: e, lo: lo, hi: hi}
			} else {
				if lo == nil {
					return nil, syntaxErrf(line, "empty index")
				}
				e = &indexExpr{line: line, base: e, index: lo}
			}
		default: // "."
			p.pos++
			if !p.at(tokIdent) {
				return nil, syntaxErrf(p.cur().line, "expected attribute name after '.'")
			}
			t := p.next()
			e = &attrExpr{line: t.line, base: e, name: t.text}
		}
	}
}

func (p *parser) primary() (expr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.pos++
		var v int64
		for _, c := range t.text {
			v = v*10 + int64(c-'0')
		}
		return &intLit{line: t.line, v: v}, nil
	case tokString:
		p.pos++
		return &strLit{line: t.line, v: t.text}, nil
	case tokBytes:
		p.pos++
		return &bytesLit{line: t.line, v: []byte(t.text)}, nil
	case tokIdent:
		p.pos++
		return &identExpr{line: t.line, name: t.text}, nil
	case tokKeyword:
		switch t.text {
		case "True":
			p.pos++
			return &boolLit{line: t.line, v: true}, nil
		case "False":
			p.pos++
			return &boolLit{line: t.line, v: false}, nil
		case "None":
			p.pos++
			return &noneLit{line: t.line}, nil
		}
	case tokOp:
		switch t.text {
		case "(":
			p.pos++
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		case "[":
			p.pos++
			var elems []expr
			err := p.items("]", "list", func() error {
				e, err := p.expression()
				elems = append(elems, e)
				return err
			})
			return &listLit{line: t.line, elems: elems}, err
		case "{":
			p.pos++
			var keys, vals []expr
			err := p.items("}", "dict", func() error {
				k, err := p.expression()
				if err == nil {
					err = p.expectOp(":")
				}
				if err != nil {
					return err
				}
				v, err := p.expression()
				keys, vals = append(keys, k), append(vals, v)
				return err
			})
			return &dictLit{line: t.line, keys: keys, vals: vals}, err
		}
	}
	return nil, syntaxErrf(t.line, "unexpected %s", t)
}
