package ddl

import (
	_ "embed"

	"cadcam/internal/schema"
)

// PaperDDL is the complete schema corpus of the paper in DDL form,
// embedded for tools and benchmarks (cmd/caddl demonstrates parsing it
// from a file; cadbench's E11 and the root benchmarks and tests parse
// this copy).
//
//go:embed testdata/paper.ddl
var PaperDDL string

// ParsePaperCorpus parses the embedded corpus into a fresh catalog.
func ParsePaperCorpus() (*schema.Catalog, error) { return Parse(PaperDDL) }
