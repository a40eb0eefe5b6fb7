package main

// pins holds each workload's per-run result digests for defaultSeed at full
// size. Regenerate an entry with
//
//	bash perfbench/run.sh --workload <name> --pin
//
// only when a change to the simulator is meant to change its results.
var pins = map[string]map[string]string{
	"scaling-sweep": {
		"vanilla/n1/s0":    "ec6a91e709f89f1c",
		"vanilla/n1/s1":    "c3a339c3af8b94e6",
		"vanilla/n2/s0":    "cfaaf77e18e4c8f8",
		"vanilla/n2/s1":    "f9dbac85e49ce37e",
		"vanilla/n4/s0":    "abf6652834a47c6a",
		"vanilla/n4/s1":    "43c2f0e81f80cec3",
		"vanilla/n8/s0":    "3dfadbe2ac70283b",
		"vanilla/n8/s1":    "6f63eb029b996f5b",
		"vanilla/n12/s0":   "0c5b4c6f0d885bc1",
		"vanilla/n12/s1":   "0967562988a5f028",
		"prototype/n1/s0":  "4a8b93106e3fa977",
		"prototype/n1/s1":  "f82ea1f1658242b1",
		"prototype/n2/s0":  "587184584eb0f212",
		"prototype/n2/s1":  "8f6d1f6d73264b80",
		"prototype/n4/s0":  "1020dd24d91f79df",
		"prototype/n4/s1":  "93d34e8484aaab7d",
		"prototype/n8/s0":  "db02d79d270c5b32",
		"prototype/n8/s1":  "65e736ed803dc856",
		"prototype/n12/s0": "ed1b43fc0f976e9a",
		"prototype/n12/s1": "852170a44a74138d",
	},
	"paper-scale-sharded": {
		"vanilla/n59": "c77f88c485a15ae4",
	},
	"ale3d-faults": {
		"ale3d-vanilla/s0":         "c68e378f53b2e1da",
		"ale3d-vanilla/s1":         "c61a4d8101301f09",
		"ale3d-naive/s0":           "9555944a8497fa7e",
		"ale3d-naive/s1":           "9039fe36e41ce998",
		"ale3d-tuned/s0":           "d096752c358d9e11",
		"ale3d-tuned/s1":           "a71f4374224684fa",
		"fault-baseline/s0":        "1dfc927b6a3ad663",
		"fault-baseline/s1":        "b1d10f0c644c7998",
		"fault-drop-abort/s0":      "cd012c3d7be76abb",
		"fault-drop-abort/s1":      "16a6a9d66b08d252",
		"fault-drop-retry/s0":      "c7359929fb88b718",
		"fault-drop-retry/s1":      "1ab8ccac1c0e2cee",
		"fault-drop-heavy/s0":      "d3359d981a55c482",
		"fault-drop-heavy/s1":      "abe315d0b5022f3f",
		"fault-partition-retry/s0": "8835c56b5f2cda61",
		"fault-partition-retry/s1": "e3f0442852b4b545",
		"fault-straggler/s0":       "848b80c7de8db90d",
		"fault-straggler/s1":       "a5ed32ec4e483867",
		"fault-stall-restart/s0":   "52724237604e662b",
		"fault-stall-restart/s1":   "c2043460ef073b34",
		"fault-crash-abort/s0":     "679db397095aa75c",
		"fault-crash-abort/s1":     "21fc69c5ed8ae0c5",
		"fault-crash-replan/s0":    "c6ec4e69299be366",
		"fault-crash-replan/s1":    "68ccd7ded2e1215e",
	},
}
