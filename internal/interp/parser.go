package interp

// Recursive-descent parser producing a statement list from the token
// stream. Expression parsing uses precedence climbing.

type parser struct {
	toks  []token
	pos   int
	loops int // enclosing while/for bodies in the current def (or top level)
}

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

func (p *parser) expression() (expr, error) { return p.orExpr() }

func (p *parser) orExpr() (expr, error) {
	lhs, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.atKw("or") {
		line := p.next().line
		rhs, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		lhs = &binaryExpr{line: line, op: "or", lhs: lhs, rhs: rhs}
	}
	return lhs, nil
}

func (p *parser) andExpr() (expr, error) {
	lhs, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.atKw("and") {
		line := p.next().line
		rhs, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		lhs = &binaryExpr{line: line, op: "and", lhs: lhs, rhs: rhs}
	}
	return lhs, nil
}

func (p *parser) notExpr() (expr, error) {
	if p.atKw("not") {
		line := p.next().line
		rhs, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{line: line, op: "not", rhs: rhs}, nil
	}
	return p.comparison()
}

var compareOps = map[string]bool{
	"==": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true,
}

func (p *parser) comparison() (expr, error) {
	lhs, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	for {
		if p.cur().kind == tokOp && compareOps[p.cur().text] {
			t := p.next()
			rhs, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			lhs = &binaryExpr{line: t.line, op: t.text, lhs: lhs, rhs: rhs}
			continue
		}
		if p.atKw("in") {
			line := p.next().line
			rhs, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			lhs = &binaryExpr{line: line, op: "in", lhs: lhs, rhs: rhs}
			continue
		}
		if p.atKw("not") && p.pos+1 < len(p.toks) &&
			p.toks[p.pos+1].kind == tokKeyword && p.toks[p.pos+1].text == "in" {
			line := p.next().line // not
			p.pos++               // in
			rhs, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			lhs = &unaryExpr{line: line, op: "not",
				rhs: &binaryExpr{line: line, op: "in", lhs: lhs, rhs: rhs}}
			continue
		}
		return lhs, nil
	}
}

func (p *parser) addExpr() (expr, error) {
	lhs, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.atOp("+") || p.atOp("-") {
		t := p.next()
		rhs, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		lhs = &binaryExpr{line: t.line, op: t.text, lhs: lhs, rhs: rhs}
	}
	return lhs, nil
}

func (p *parser) mulExpr() (expr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.atOp("*") || p.atOp("/") || p.atOp("//") || p.atOp("%") {
		t := p.next()
		op := t.text
		if op == "/" {
			op = "//" // integer-only language: / is floor division
		}
		rhs, err := p.unary()
		if err != nil {
			return nil, err
		}
		lhs = &binaryExpr{line: t.line, op: op, lhs: lhs, rhs: rhs}
	}
	return lhs, nil
}

func (p *parser) unary() (expr, error) {
	if p.atOp("-") {
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
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.atOp("("):
			line := p.next().line
			var args []expr
			for !p.atOp(")") {
				a, err := p.expression()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.atOp(",") {
					p.pos++
				} else if !p.atOp(")") {
					return nil, syntaxErrf(p.cur().line, "expected ',' or ')' in call")
				}
			}
			p.pos++
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
		case p.atOp("."):
			p.pos++
			if !p.at(tokIdent) {
				return nil, syntaxErrf(p.cur().line, "expected attribute name after '.'")
			}
			t := p.next()
			e = &attrExpr{line: t.line, base: e, name: t.text}
		default:
			return e, nil
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
			for !p.atOp("]") {
				e, err := p.expression()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
				if p.atOp(",") {
					p.pos++
				} else if !p.atOp("]") {
					return nil, syntaxErrf(p.cur().line, "expected ',' or ']' in list")
				}
			}
			p.pos++
			return &listLit{line: t.line, elems: elems}, nil
		case "{":
			p.pos++
			var keys, vals []expr
			for !p.atOp("}") {
				k, err := p.expression()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(":"); err != nil {
					return nil, err
				}
				v, err := p.expression()
				if err != nil {
					return nil, err
				}
				keys = append(keys, k)
				vals = append(vals, v)
				if p.atOp(",") {
					p.pos++
				} else if !p.atOp("}") {
					return nil, syntaxErrf(p.cur().line, "expected ',' or '}' in dict")
				}
			}
			p.pos++
			return &dictLit{line: t.line, keys: keys, vals: vals}, nil
		}
	}
	return nil, syntaxErrf(t.line, "unexpected %s", t)
}
