// Package index implements the positional inverted index underneath the
// search engine: term dictionary, per-term postings with in-document
// positions, document lengths and collection statistics, plus the
// positional intersection used to evaluate exact-phrase (#1) operators.
//
// The index stores analyzed terms; the caller (the search layer) owns the
// analysis chain so that indexing and querying agree on tokenization.
package index

import (
	"fmt"
	"sort"
)

// Posting is the occurrences of one term in one document.
type Posting struct {
	Doc       int32
	Positions []uint32 // ascending token offsets within the document
}

// Index is a positional inverted index over dense document IDs. Documents
// are added once each via AddDocument; afterwards the index is safe for
// concurrent reads.
type Index struct {
	dict     map[string]int32
	terms    []string    // termID -> term
	postings [][]Posting // termID -> postings sorted by doc
	colFreq  []int64     // termID -> total occurrences
	docLens  []int64
	total    int64 // total token count across the collection
}

// New returns an empty index.
func New() *Index {
	return &Index{dict: make(map[string]int32)}
}

// AddDocument appends a document with the next dense ID and returns that ID.
// Token positions are their offsets in the supplied slice. Empty documents
// are allowed (an image with no usable text still occupies a rank).
func (ix *Index) AddDocument(tokens []string) int32 {
	doc := int32(len(ix.docLens))
	ix.docLens = append(ix.docLens, int64(len(tokens)))
	ix.total += int64(len(tokens))
	for pos, tok := range tokens {
		tid, ok := ix.dict[tok]
		if !ok {
			tid = int32(len(ix.terms))
			ix.dict[tok] = tid
			ix.terms = append(ix.terms, tok)
			ix.postings = append(ix.postings, nil)
			ix.colFreq = append(ix.colFreq, 0)
		}
		plist := ix.postings[tid]
		if n := len(plist); n > 0 && plist[n-1].Doc == doc {
			plist[n-1].Positions = append(plist[n-1].Positions, uint32(pos))
		} else {
			plist = append(plist, Posting{Doc: doc, Positions: []uint32{uint32(pos)}})
		}
		ix.postings[tid] = plist
		ix.colFreq[tid]++
	}
	return doc
}

// Load reconstructs an index directly from its decoded state — document
// lengths, vocabulary and per-term postings — bypassing AddDocument: no
// tokens are replayed and no postings are re-merged. This is the decode
// path of the binary snapshot subsystem (internal/store). Collection
// frequencies and the collection length are derived in one pass over the
// input, which is validated for shape (doc bounds, ascending postings,
// non-empty position lists) so a corrupted snapshot fails loudly instead
// of silently corrupting scoring. The slices are owned by the index
// afterwards.
func Load(docLens []int64, terms []string, postings [][]Posting) (*Index, error) {
	if len(terms) != len(postings) {
		return nil, fmt.Errorf("index: load: %d terms but %d postings lists", len(terms), len(postings))
	}
	ix := &Index{
		dict:     make(map[string]int32, len(terms)),
		terms:    terms,
		postings: postings,
		colFreq:  make([]int64, len(terms)),
		docLens:  docLens,
	}
	for doc, dl := range docLens {
		if dl < 0 {
			return nil, fmt.Errorf("index: load: negative length %d for doc %d", dl, doc)
		}
		ix.total += dl
	}
	for tid, term := range terms {
		if _, dup := ix.dict[term]; dup {
			return nil, fmt.Errorf("index: load: duplicate term %q", term)
		}
		ix.dict[term] = int32(tid)
		prev := int32(-1)
		for _, p := range postings[tid] {
			if p.Doc <= prev || int(p.Doc) >= len(docLens) {
				return nil, fmt.Errorf("index: load: term %q: doc %d out of order or out of range", term, p.Doc)
			}
			if len(p.Positions) == 0 {
				return nil, fmt.Errorf("index: load: term %q: empty posting for doc %d", term, p.Doc)
			}
			prev = p.Doc
			ix.colFreq[tid] += int64(len(p.Positions))
		}
	}
	return ix, nil
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return len(ix.docLens) }

// DocLen returns the token count of document doc.
func (ix *Index) DocLen(doc int32) (int64, error) {
	if doc < 0 || int(doc) >= len(ix.docLens) {
		return 0, fmt.Errorf("index: unknown document %d", doc)
	}
	return ix.docLens[doc], nil
}

// TotalTokens returns the collection length (sum of document lengths).
func (ix *Index) TotalTokens() int64 { return ix.total }

// NumTerms returns the vocabulary size.
func (ix *Index) NumTerms() int { return len(ix.terms) }

// NumPostings returns the total number of (term, document) pairs — the sum
// of document frequencies over the vocabulary. Serving stats report it per
// shard as a size measure of the partitioned index.
func (ix *Index) NumPostings() int64 {
	var n int64
	for _, plist := range ix.postings {
		n += int64(len(plist))
	}
	return n
}

// Postings returns the postings list for term, or nil when absent. The
// returned slice is owned by the index and must not be modified.
func (ix *Index) Postings(term string) []Posting {
	tid, ok := ix.dict[term]
	if !ok {
		return nil
	}
	return ix.postings[tid]
}

// Lookup returns the postings list and collection frequency of term in
// one dictionary probe ((nil, 0) when absent) — the planner's fast path,
// which otherwise pays two probes per term per partition.
func (ix *Index) Lookup(term string) ([]Posting, int64) {
	tid, ok := ix.dict[term]
	if !ok {
		return nil, 0
	}
	return ix.postings[tid], ix.colFreq[tid]
}

// CollectionFreq returns the total number of occurrences of term.
func (ix *Index) CollectionFreq(term string) int64 {
	tid, ok := ix.dict[term]
	if !ok {
		return 0
	}
	return ix.colFreq[tid]
}

// DocFreq returns the number of documents containing term.
func (ix *Index) DocFreq(term string) int {
	return len(ix.Postings(term))
}

// PhraseScratch holds the reusable per-caller working state of
// PhrasePostingsScratch (the per-term list and cursor tables), so hot
// planners do not reallocate it for every phrase.
type PhraseScratch struct {
	lists   [][]Posting
	cursors []int
}

// PhrasePostings computes the postings of the exact phrase (terms adjacent
// and in order), i.e. INDRI's #1 operator, by positional intersection. The
// result lists each document containing the phrase with the start positions
// of every occurrence. A single-term phrase returns that term's postings;
// an empty phrase returns nil.
func (ix *Index) PhrasePostings(terms []string) []Posting {
	var sc PhraseScratch
	return ix.PhrasePostingsScratch(terms, &sc)
}

// PhrasePostingsScratch is PhrasePostings with caller-owned scratch: same
// results, no per-call table allocations. The returned postings are fresh
// (not part of the scratch) and stay valid across further calls.
func (ix *Index) PhrasePostingsScratch(terms []string, sc *PhraseScratch) []Posting {
	switch len(terms) {
	case 0:
		return nil
	case 1:
		return ix.Postings(terms[0])
	}
	if cap(sc.lists) < len(terms) {
		sc.lists = make([][]Posting, len(terms))
	}
	lists := sc.lists[:len(terms)]
	for i, term := range terms {
		lists[i] = ix.Postings(term)
		if lists[i] == nil {
			return nil
		}
	}
	return intersectPhrase(lists, sc)
}

// intersectPhrase computes exact-phrase postings from the constituent
// postings lists (lists[i] holds the postings of the phrase's i-th term;
// any empty list means no match); it backs PhrasePostingsScratch. The
// returned postings are fresh and do not alias sc.
func intersectPhrase(lists [][]Posting, sc *PhraseScratch) []Posting {
	if len(lists) == 0 {
		return nil
	}
	if cap(sc.cursors) < len(lists) {
		sc.cursors = make([]int, len(lists))
	}
	cursors := sc.cursors[:len(lists)]
	minDF := -1
	for i, list := range lists {
		if len(list) == 0 {
			return nil
		}
		cursors[i] = 0
		if minDF < 0 || len(list) < minDF {
			minDF = len(list)
		}
	}
	// Galloping doc-level intersection seeded by the rarest list would be
	// the classic optimization; collection sizes here make the simple merge
	// clearer and fast enough (see BenchmarkPhrasePostings). The output is
	// sized by the tightest document frequency, the upper bound on matches.
	out := make([]Posting, 0, minDF)
docLoop:
	for _, p0 := range lists[0] {
		positions := p0.Positions
		for i := 1; i < len(lists); i++ {
			list := lists[i]
			cur := cursors[i]
			for cur < len(list) && list[cur].Doc < p0.Doc {
				cur++
			}
			cursors[i] = cur
			if cur >= len(list) || list[cur].Doc != p0.Doc {
				continue docLoop
			}
			positions = shiftIntersect(positions, list[cur].Positions, uint32(i))
			if len(positions) == 0 {
				continue docLoop
			}
		}
		out = append(out, Posting{Doc: p0.Doc, Positions: positions})
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// shiftIntersect keeps the start positions p such that p+offset occurs in
// next. Both inputs are ascending; the output is ascending.
func shiftIntersect(starts, next []uint32, offset uint32) []uint32 {
	var out []uint32
	i, j := 0, 0
	for i < len(starts) && j < len(next) {
		want := starts[i] + offset
		switch {
		case next[j] == want:
			out = append(out, starts[i])
			i++
			j++
		case next[j] < want:
			j++
		default:
			i++
		}
	}
	return out
}

// PhraseCollectionFreq returns the total occurrences of the exact phrase in
// the collection.
func (ix *Index) PhraseCollectionFreq(terms []string) int64 {
	return PostingsCollectionFreq(ix.PhrasePostings(terms))
}

// PostingsCollectionFreq sums the occurrence counts of a postings list —
// the collection frequency of whatever produced it. Callers that already
// hold a phrase's postings use this instead of re-running the positional
// intersection behind PhraseCollectionFreq.
func PostingsCollectionFreq(postings []Posting) int64 {
	var n int64
	for _, p := range postings {
		n += int64(len(p.Positions))
	}
	return n
}

// Terms returns the vocabulary in sorted order (for diagnostics and tests).
func (ix *Index) Terms() []string {
	out := append([]string(nil), ix.terms...)
	sort.Strings(out)
	return out
}
