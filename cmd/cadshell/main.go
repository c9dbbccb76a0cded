// Command cadshell is a small interactive shell over a cadcam database:
// load a DDL schema, create objects and bindings, inspect inheritance and
// run constraint-language queries.
//
// Usage:
//
//	cadshell [-dir data] schema.ddl
//
// Type "help" at the prompt for the command list.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"cadcam"
	"cadcam/internal/ddl"
	"cadcam/internal/expr"
)

func main() {
	dir := flag.String("dir", "", "persistence directory (empty = in-memory)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cadshell [-dir data] schema.ddl")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "cadshell:", err)
		os.Exit(1)
	}
	cat, err := ddl.Parse(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "cadshell:", err)
		os.Exit(1)
	}
	db, err := cadcam.Open(cat, cadcam.Options{Dir: *dir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cadshell:", err)
		os.Exit(1)
	}
	defer db.Close()
	fmt.Printf("loaded %d object types; type 'help' for commands\n", len(cat.ObjectTypeNames()))

	sh := &shell{db: db, out: os.Stdout}
	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("cad> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "quit" || line == "exit" {
			break
		}
		if line != "" {
			if err := sh.exec(line); err != nil {
				fmt.Println("error:", err)
			}
		}
		fmt.Print("cad> ")
	}
}

type shell struct {
	db  *cadcam.Database
	out io.Writer
}

const helpText = `commands:
  types                       list object types
  classes                     list database-level classes
  class  <name> [elemtype]    define a class
  new    <type> [class]       create an object
  sub    <parent> <subclass>  create a subobject
  relsub <rel> <subclass>     create a subobject of a relationship
  set    <sur> <attr> <expr>  set an attribute (expr: 4, "s", IN, ...)
  get    <sur> <attr>         read an attribute
  members <sur> <name>        list a subclass
  bind   <rel> <inh> <trans>  create an inheritance binding
  unbind <rel> <inh>          remove a binding
  ack    <rel> <inh>          acknowledge an adaptation
  relate <reltype> r=s ...    create a relationship (role=surrogate)
  relatein <owner> <subrel> r=s ...
  del    <sur>                delete (cascading)
  check  [sur]                check constraints (all if no sur)
  expand <sur>                print the expansion tree
  pending                     list pending adaptations
  eval   <sur> <expr>         evaluate against an object
  evalc  <expr>               evaluate against the classes
  index  <name> <class> <attr>  create a secondary index
  unindex <name>              drop a secondary index
  indexes                     list secondary indexes
  query  <class> [predicate]  list class members matching a predicate
  explain <class> [predicate] show the access plan a query would use
  quit`

func (s *shell) exec(line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		fmt.Fprintln(s.out, helpText)
	case "types":
		for _, n := range s.db.Catalog().ObjectTypeNames() {
			fmt.Fprintln(s.out, " ", n)
		}
	case "classes":
		for _, n := range s.db.Store().ClassNames() {
			members, _ := s.db.Class(n)
			fmt.Fprintf(s.out, "  %s (%d members)\n", n, len(members))
		}
	case "class":
		if len(args) < 1 {
			return fmt.Errorf("usage: class <name> [elemtype]")
		}
		elem := ""
		if len(args) > 1 {
			elem = args[1]
		}
		return s.db.DefineClass(args[0], elem)
	case "new":
		if len(args) < 1 {
			return fmt.Errorf("usage: new <type> [class]")
		}
		cls := ""
		if len(args) > 1 {
			cls = args[1]
		}
		sur, err := s.db.NewObject(args[0], cls)
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, " ", sur)
	case "sub", "relsub":
		if len(args) != 2 {
			return fmt.Errorf("usage: %s <parent> <subclass>", cmd)
		}
		parent, err := parseSur(args[0])
		if err != nil {
			return err
		}
		var sur cadcam.Surrogate
		if cmd == "sub" {
			sur, err = s.db.NewSubobject(parent, args[1])
		} else {
			sur, err = s.db.NewRelSubobject(parent, args[1])
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, " ", sur)
	case "set":
		if len(args) < 3 {
			return fmt.Errorf("usage: set <sur> <attr> <expr>")
		}
		sur, err := parseSur(args[0])
		if err != nil {
			return err
		}
		v, err := parseValue(strings.Join(args[2:], " "))
		if err != nil {
			return err
		}
		return s.db.SetAttr(sur, args[1], v)
	case "get":
		if len(args) != 2 {
			return fmt.Errorf("usage: get <sur> <attr>")
		}
		sur, err := parseSur(args[0])
		if err != nil {
			return err
		}
		v, err := s.db.GetAttr(sur, args[1])
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, " ", v)
	case "members":
		if len(args) != 2 {
			return fmt.Errorf("usage: members <sur> <name>")
		}
		sur, err := parseSur(args[0])
		if err != nil {
			return err
		}
		members, err := s.db.Members(sur, args[1])
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, " ", members)
	case "bind":
		if len(args) != 3 {
			return fmt.Errorf("usage: bind <rel> <inheritor> <transmitter>")
		}
		inh, err := parseSur(args[1])
		if err != nil {
			return err
		}
		trans, err := parseSur(args[2])
		if err != nil {
			return err
		}
		bsur, err := s.db.Bind(args[0], inh, trans)
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, "  binding", bsur)
	case "unbind", "ack":
		if len(args) != 2 {
			return fmt.Errorf("usage: %s <rel> <inheritor>", cmd)
		}
		inh, err := parseSur(args[1])
		if err != nil {
			return err
		}
		if cmd == "unbind" {
			return s.db.Unbind(args[0], inh)
		}
		return s.db.Acknowledge(args[0], inh)
	case "relate", "relatein":
		return s.relate(cmd, args)
	case "del":
		if len(args) != 1 {
			return fmt.Errorf("usage: del <sur>")
		}
		sur, err := parseSur(args[0])
		if err != nil {
			return err
		}
		return s.db.Delete(sur)
	case "check":
		var violations []cadcam.ConstraintViolation
		if len(args) == 1 {
			sur, err := parseSur(args[0])
			if err != nil {
				return err
			}
			violations, err = s.db.CheckConstraints(sur)
			if err != nil {
				return err
			}
		} else {
			violations = s.db.CheckAll()
		}
		if len(violations) == 0 {
			fmt.Fprintln(s.out, "  ok")
		}
		for _, v := range violations {
			fmt.Fprintln(s.out, " ", v.String())
		}
	case "expand":
		if len(args) != 1 {
			return fmt.Errorf("usage: expand <sur>")
		}
		sur, err := parseSur(args[0])
		if err != nil {
			return err
		}
		exp, err := s.db.Expand(sur)
		if err != nil {
			return err
		}
		printExpansion(s.out, exp, "  ")
	case "pending":
		for _, a := range s.db.PendingAdaptations() {
			fmt.Fprintf(s.out, "  %v must adapt to %v via %s (%d updates)\n",
				a.Inheritor, a.Transmitter, a.Rel, a.Updates)
		}
	case "eval":
		if len(args) < 2 {
			return fmt.Errorf("usage: eval <sur> <expr>")
		}
		sur, err := parseSur(args[0])
		if err != nil {
			return err
		}
		v, err := s.db.Eval(sur, strings.Join(args[1:], " "))
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, " ", v)
	case "evalc":
		if len(args) < 1 {
			return fmt.Errorf("usage: evalc <expr>")
		}
		v, err := s.db.EvalClass(strings.Join(args, " "))
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, " ", v)
	case "index":
		if len(args) != 3 {
			return fmt.Errorf("usage: index <name> <class> <attr>")
		}
		return s.db.CreateIndex(args[0], args[1], args[2])
	case "unindex":
		if len(args) != 1 {
			return fmt.Errorf("usage: unindex <name>")
		}
		return s.db.DropIndex(args[0])
	case "indexes":
		for _, d := range s.db.Indexes() {
			fmt.Fprintf(s.out, "  %s: %s.%s\n", d.Name, d.ClassName, d.AttrName)
		}
	case "query":
		if len(args) < 1 {
			return fmt.Errorf("usage: query <class> [predicate]")
		}
		surs, err := s.db.Query(args[0], strings.Join(args[1:], " "))
		if err != nil {
			return err
		}
		for _, sur := range surs {
			fmt.Fprintln(s.out, " ", sur)
		}
		fmt.Fprintf(s.out, "  (%d match(es))\n", len(surs))
	case "explain":
		if len(args) < 1 {
			return fmt.Errorf("usage: explain <class> [predicate]")
		}
		text, err := s.db.Explain(args[0], strings.Join(args[1:], " "))
		if err != nil {
			return err
		}
		fmt.Fprint(s.out, "  "+strings.ReplaceAll(strings.TrimRight(text, "\n"), "\n", "\n  ")+"\n")
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
	return nil
}

func (s *shell) relate(cmd string, args []string) error {
	min := 1
	if cmd == "relatein" {
		min = 2
	}
	if len(args) < min {
		return fmt.Errorf("usage: %s ... role=surrogate ...", cmd)
	}
	parts := cadcam.Participants{}
	for _, kv := range args[min:] {
		role, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("participant %q: want role=surrogate", kv)
		}
		sur, err := parseSur(val)
		if err != nil {
			return err
		}
		parts[role] = cadcam.RefOf(sur)
	}
	var sur cadcam.Surrogate
	var err error
	if cmd == "relate" {
		sur, err = s.db.Relate(args[0], parts)
	} else {
		var owner cadcam.Surrogate
		owner, err = parseSur(args[0])
		if err != nil {
			return err
		}
		sur, err = s.db.RelateIn(owner, args[1], parts)
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(s.out, " ", sur)
	return nil
}

// parseSur accepts "7" or "@7".
func parseSur(s string) (cadcam.Surrogate, error) {
	s = strings.TrimPrefix(s, "@")
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil || n == 0 {
		return 0, fmt.Errorf("bad surrogate %q", s)
	}
	return cadcam.Surrogate(n), nil
}

// parseValue evaluates a literal expression with no names in scope, so
// "4", "2+2", `"text"`, "true" and enum symbols like IN all work.
func parseValue(src string) (cadcam.Value, error) {
	e, err := expr.Parse(src)
	if err != nil {
		return nil, err
	}
	return expr.Compile(e).Eval(expr.NewMapEnv())
}

func printExpansion(out io.Writer, e *cadcam.Expansion, indent string) {
	label := e.Rel
	if label == "" {
		label = "root"
	}
	fmt.Fprintf(out, "%s%v (%s) via %s\n", indent, e.Object, e.Type, label)
	for _, c := range e.Children {
		printExpansion(out, c, indent+"  ")
	}
}
