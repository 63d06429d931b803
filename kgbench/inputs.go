package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"kgvote/internal/qa"
	"kgvote/internal/synth"
)

// inputs is everything a run sends. The feedback is fixed by spec.json:
// the corpus kgvoted loads and the bank of questions ground-truth voters
// work through in order. --seed drives the rest of the traffic: the ask
// pool and its Zipf order, and the held-out quality questions. The
// feedback stays fixed because a Full-mode solve costs about 0.3 s per
// vote and its cost depends severalfold on the question, the batch it
// lands in and the graph it meets: a run sees only ~45 votes, and with a
// seeded corpus, bank, bank order or voter mistakes the flush figures
// moved 20–30% from seed to seed, measuring the draw rather than the
// code.
type inputs struct {
	corpusPath string
	// askBodies is the ask pool; askSeq the Zipf-distributed order in
	// which open-loop asks draw from it. voterQs is the question bank;
	// voters cycle through it.
	askBodies [][]byte
	askSeq    []int
	voterQs   []qa.Question
	voterBody [][]byte
	heldOut   []qa.Question
	heldBody  [][]byte
}

// askSeqLen bounds the precomputed ask order; longer runs wrap around.
const askSeqLen = 1 << 18

func makeInputs(sp *spec, seed int64, dir string) (*inputs, error) {
	c, err := synth.GenerateCorpus(synth.CorpusConfig{
		Docs:           sp.Corpus.Docs,
		Topics:         sp.Corpus.Topics,
		EntitiesPer:    sp.Corpus.EntitiesPerTopic,
		EntitiesPerDoc: sp.Corpus.EntitiesPerDoc,
		Seed:           sp.Corpus.Seed,
	})
	if err != nil {
		return nil, err
	}
	in := &inputs{corpusPath: dir + "/corpus.json"}
	f, err := os.Create(in.corpusPath)
	if err != nil {
		return nil, err
	}
	if err := qa.WriteCorpus(f, c); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	q := sp.Questions
	// Every question set shares the hot-document subset (HotSeed), so
	// feedback on popular documents transfers to held-out questions.
	gen := func(n int, qseed int64) ([]qa.Question, [][]byte, error) {
		qs, err := synth.GenerateQuestions(c, synth.QuestionConfig{
			N: n, Seed: qseed,
			HotDocs: q.HotDocs, HotProb: q.HotProb, HotSeed: sp.Corpus.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		bodies := make([][]byte, len(qs))
		for i, x := range qs {
			if bodies[i], err = json.Marshal(map[string]any{"entities": x.Entities}); err != nil {
				return nil, nil, err
			}
		}
		return qs, bodies, nil
	}
	if _, in.askBodies, err = gen(q.AskPool, seed*1000+1); err != nil {
		return nil, err
	}
	if in.voterQs, in.voterBody, err = gen(q.VoterBank, sp.Corpus.Seed*1000+2); err != nil {
		return nil, err
	}
	if in.heldOut, in.heldBody, err = gen(q.HeldOut, seed*1000+3); err != nil {
		return nil, err
	}
	if q.ZipfS <= 1 {
		return nil, fmt.Errorf("spec.json: zipf_s must be > 1")
	}
	z := rand.NewZipf(rand.New(rand.NewSource(seed*1000+4)), q.ZipfS, 1, uint64(len(in.askBodies)-1))
	in.askSeq = make([]int, askSeqLen)
	for i := range in.askSeq {
		in.askSeq[i] = int(z.Uint64())
	}
	return in, nil
}
