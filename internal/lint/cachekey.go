package lint

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"
)

// CacheKey returns the analyzer that proves cache-key completeness for
// sweep result caching. internal/sweep caches a job's result under a
// digest of its Point; a field added to Point but left out of the digest
// silently aliases distinct experiments onto one cache entry — stale
// results with no error anywhere. The analyzer turns that into a lint
// failure: a struct type annotated
//
//	//cache:key Key
//
// (method name optional; "Key" is the default) promises that *every* field
// of the struct flows into the named method. Coverage is established per
// field:
//
//   - a json.Marshal call on the receiver (or an alias of it) covers the
//     exported fields whose json tag is not "-" — and, crucially, does NOT
//     cover unexported fields or tag-excluded ones, which is exactly the
//     failure mode the analyzer exists to catch;
//   - a direct selector read (pt.Field) covers that field;
//   - passing the receiver to any other function is treated, leniently, as
//     covering all fields — the analyzer cannot see into arbitrary callees,
//     and a false positive on a helper-based key would teach people to
//     delete the annotation (leniency documented in DESIGN.md).
//
// Uncovered fields are reported at their declaration with the precise
// reason they miss the digest. A missing method is reported at the type.
func CacheKey() *Analyzer {
	return &Analyzer{
		Name: "cachekey",
		Doc:  "prove every field of a //cache:key-annotated struct flows into its cache-key method",
		Run:  runCacheKey,
	}
}

func runCacheKey(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				lines := directiveLines("cache:key", doc)
				if len(lines) == 0 {
					continue
				}
				// The payload names the key method; bare means "Key".
				method := lines[0].payload
				if method == "" {
					method = "Key"
				}
				out = append(out, p.checkCacheKey(ts, method)...)
			}
		}
	}
	return out
}

// checkCacheKey verifies field coverage of one annotated struct type.
func (p *Package) checkCacheKey(ts *ast.TypeSpec, method string) []Diagnostic {
	tn, ok := p.Info.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return nil
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return []Diagnostic{p.diag("cachekey", ts.Pos(),
			"//cache:key on %s, which is not a struct type", ts.Name.Name)}
	}
	mdecl := p.findMethod(ts.Name.Name, method)
	if mdecl == nil {
		return []Diagnostic{p.diag("cachekey", ts.Pos(),
			"type %s declares //cache:key %s but no method %s with a body exists in this package",
			ts.Name.Name, method, method)}
	}

	cov := p.keyCoverage(mdecl)
	var out []Diagnostic
	for i := 0; i < st.NumFields(); i++ {
		fv := st.Field(i)
		if cov.all || cov.fields[fv.Name()] {
			continue
		}
		tagName, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("json"), ",")
		switch {
		case cov.marshaled && !fv.Exported():
			out = append(out, p.diag("cachekey", fv.Pos(),
				"field %s of %s does not flow into cache key %s: unexported fields are invisible to json.Marshal",
				fv.Name(), ts.Name.Name, method))
		case cov.marshaled && tagName == "-":
			out = append(out, p.diag("cachekey", fv.Pos(),
				"field %s of %s does not flow into cache key %s: its json:\"-\" tag excludes it from json.Marshal",
				fv.Name(), ts.Name.Name, method))
		case cov.marshaled:
			continue // exported, tag-included: json.Marshal serializes it
		default:
			out = append(out, p.diag("cachekey", fv.Pos(),
				"field %s of %s does not flow into cache key %s: the method never reads it",
				fv.Name(), ts.Name.Name, method))
		}
	}
	return out
}

// findMethod locates the declared method with a body on the named type
// (value or pointer receiver) in this package.
func (p *Package) findMethod(typeName, method string) *ast.FuncDecl {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || fd.Name.Name != method {
				continue
			}
			if recvTypeName(fd.Recv) == typeName {
				return fd
			}
		}
	}
	return nil
}

// recvTypeName extracts the base type name of a receiver field list.
func recvTypeName(recv *ast.FieldList) string {
	if len(recv.List) != 1 {
		return ""
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// coverage is the evidence a key method accumulates per struct field.
type coverage struct {
	fields    map[string]bool // directly read fields
	marshaled bool            // receiver passed to json.Marshal
	all       bool            // receiver escapes into an opaque call
}

// keyCoverage walks the method body collecting which receiver fields flow
// into the key. Receiver aliases (k := pt, q := &pt) are tracked so reads
// through a copy still count.
func (p *Package) keyCoverage(fd *ast.FuncDecl) coverage {
	cov := coverage{fields: make(map[string]bool)}
	aliases := p.receiverAliases(fd)
	isAlias := func(e ast.Expr) bool {
		e = unparen(e)
		if ue, ok := e.(*ast.UnaryExpr); ok {
			e = unparen(ue.X)
		}
		if star, ok := e.(*ast.StarExpr); ok {
			e = unparen(star.X)
		}
		id, ok := e.(*ast.Ident)
		if !ok {
			return false
		}
		obj := p.Info.Uses[id]
		return obj != nil && aliases[obj]
	}

	ast.Inspect(fd.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.SelectorExpr:
			if isAlias(node.X) {
				cov.fields[node.Sel.Name] = true
			}
		case *ast.CallExpr:
			callee, _ := p.calleeOf(node)
			isMarshal := callee != nil && callee.FullName() == "encoding/json.Marshal"
			for _, arg := range node.Args {
				if !isAlias(arg) {
					continue
				}
				if isMarshal {
					cov.marshaled = true
				} else {
					cov.all = true
				}
			}
		}
		return true
	})
	return cov
}

// receiverAliases collects the receiver object plus every local bound to a
// copy or pointer of it (x := pt, ptr := &pt), iterated to a fixed point so
// chains of aliases resolve.
func (p *Package) receiverAliases(fd *ast.FuncDecl) map[types.Object]bool {
	aliases := make(map[types.Object]bool)
	if len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		if obj := p.Info.Defs[fd.Recv.List[0].Names[0]]; obj != nil {
			aliases[obj] = true
		}
	}
	for pass := 0; pass < 4; pass++ {
		changed := false
		ast.Inspect(fd.Body, func(node ast.Node) bool {
			as, ok := node.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				e := unparen(rhs)
				if ue, ok := e.(*ast.UnaryExpr); ok {
					e = unparen(ue.X)
				}
				id, ok := e.(*ast.Ident)
				if !ok || !aliases[p.Info.Uses[id]] {
					continue
				}
				lhs, ok := unparen(as.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				obj := p.Info.Defs[lhs]
				if obj == nil {
					obj = p.Info.Uses[lhs]
				}
				if obj != nil && !aliases[obj] {
					aliases[obj] = true
					changed = true
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return aliases
}
