package encoder

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/revlib"
	"repro/internal/sat"
)

// goldenCNF pins one encoding: the SHA-256 of its DIMACS rendering and its
// variable and clause counts, taken after the cost guards for MaxCost/2, 7
// and 0 were minted.
type goldenCNF struct {
	sha           string
	vars, clauses int
}

// recordCNF mints the three cost guards and fingerprints the solver's
// problem clauses.
func recordCNF(t *testing.T, s *sat.Solver, maxCost int, guard func(int) sat.Lit) goldenCNF {
	t.Helper()
	for _, bound := range []int{maxCost / 2, 7, 0} {
		guard(bound)
	}
	h := sha256.New()
	if err := s.WriteDIMACS(h); err != nil {
		t.Fatal(err)
	}
	return goldenCNF{sha: hex.EncodeToString(h.Sum(nil)), vars: s.NumVars(), clauses: s.NumClauses()}
}

// weightedQX4 is QX4 under a calibration with per-edge SWAP and per-pair H
// overrides, so both the weighted swap table and the per-pair switch-cost
// vectors enter the CNF.
func weightedQX4(t *testing.T) *arch.Arch {
	t.Helper()
	cm, err := arch.NewCostModel("qx4-cal", arch.PaperSwapUnit, arch.PaperHUnit)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		cm.SetSwapWeight(1, 2, 10),
		cm.SetSwapWeight(2, 4, 21),
		cm.SetHWeight(2, 4, 8),
		cm.SetHWeight(3, 2, 2),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return arch.QX4().MustWithCostModel(cm)
}

// subsetFamily restricts a to one representative of each automorphism
// orbit of its connected n-subsets, the family the §4.1 SAT path encodes.
func subsetFamily(a *arch.Arch, n int) []*arch.Arch {
	subsets := a.ConnectedSubsets(n)
	var out []*arch.Arch
	for _, orbit := range arch.SubsetOrbits(subsets, a.Automorphisms(0)) {
		sub, _ := a.Restrict(subsets[orbit[0]])
		out = append(out, sub)
	}
	return out
}

// TestEncodingGolden pins the CNF that Encode and EncodeSubsets emit, byte
// for byte, on the small Table-1 rows (≤ 16 CNOTs): a refactor of the
// encoder must leave every record unchanged, and a change to the
// formulation updates the table in the same commit.
func TestEncodingGolden(t *testing.T) {
	want := map[string]goldenCNF{
		"4gt11_83/nil":                {"e3ce863c15867090473591a475d5c44f30f3ea906e5441c50c422e5972e5ff82", 4066, 91004},
		"4gt11_83/odd":                {"bb1aa7c883177d0b6a3de6b3bafaeb6728b3839fc264033de6fc9c87e7a621dd", 2036, 42593},
		"4gt11_83/pinned":             {"1c7e5235d6c1ddf9a5bd436c29e4cf3ee44839a18798e4bf821f27ef1e5dd208", 4348, 94894},
		"4gt11_83/weighted":           {"be108d555e0e71eff6fc6feee9c26055912d1d98ea5a668a7b3d966cf082e4c9", 4206, 91756},
		"4gt11_84/nil":                {"91d210f802c4efa145a4560df04df0258c93e4d9e20ca6f4fddd633417e65844", 2469, 46163},
		"4gt11_84/odd":                {"63f42d4b4572dceb262bc821dc591fe9d3dbb4bbb752bf1938bdce68c37d96c4", 1328, 23421},
		"4gt11_84/pinned":             {"466ce6e0f6c4e74934585e1b27cc3c93fc2f9e8fd7a1a1779539ffa1a855c762", 2764, 49482},
		"4gt11_84/qx5-subsets":        {"690f92a459e5adffbd279bb259437f7cd010a6cb5b262d2d523b0d247251df2d", 9294, 74080},
		"4gt11_84/weighted":           {"c26661b75b72d48c0672998cb6bb7f0fc29194200814bfb15950baf6dd8e6369", 2559, 46642},
		"4gt11_84/weighted-subsets":   {"fed47980000f0954ff3ba4cbe97c89b03a5d98f654474802ee7e8ad3cf0a0c5e", 1907, 14577},
		"4mod5-v0_19/nil":             {"eb0804e60680561bbdde8d5e3fc820c243513bac6882c4045a5f2253d1399407", 4678, 104957},
		"4mod5-v0_19/odd":             {"0cae1920002cec98bc544e33fff37752bcc6dfb54301d72811df28ed99a065c1", 2366, 49658},
		"4mod5-v0_19/pinned":          {"aa0ea9c92bb08a91033c617192aee7bcfefe083cbef1aac4c288404557c3e133", 4960, 108847},
		"4mod5-v0_19/weighted":        {"295a1615634067b090d91174f1b8102baef49360a67906e9257fd2a80f9d20ca", 4838, 105821},
		"4mod5-v0_20/nil":             {"ad37145c6301f78f3ebdae1a69bc710126a8f1c5fcd670a4532982ba6440983a", 2834, 63069},
		"4mod5-v0_20/odd":             {"10319dcddcdbc2e8a1fcda2f8f2ed1cefcf0a5563d4513504f71c9d35a6c3091", 1371, 28445},
		"4mod5-v0_20/pinned":          {"a741b2da1f6da05d0e68964cbe835c89eae7803b9522dcf229be976d7429ccd4", 3116, 66956},
		"4mod5-v0_20/weighted":        {"1dcbac1ee81ab8396acd9a5fd421680443fac1796ce2b3f3cd23d11fc56bb52c", 2934, 63599},
		"4mod5-v1_22/nil":             {"33391dc14dcde8df132352b79feae5b644cb981cae3406b76535757f4cbdcd6c", 3138, 70039},
		"4mod5-v1_22/odd":             {"3fb0f385a3db91964eea71d6e410565df79e81287c23e8abdc6d0c42e44d92f2", 1685, 35446},
		"4mod5-v1_22/pinned":          {"18e7544db619632a6ee37942c0ab0dddca9b7e5c547700d910efc66c6ff07e6b", 3426, 73945},
		"4mod5-v1_22/weighted":        {"7d74f47df13b0d42efebfb0f55c7f4c79edc24bf24c576767447ceb716a35137", 3248, 70627},
		"4mod5-v1_24/nil":             {"8163e8434a287e1d4bf82b20e1b637411bc6c9269318d3990618226319588775", 4678, 104957},
		"4mod5-v1_24/odd":             {"704bb8be15853b82c0c125f167c3450f67d94673ed8c14e11887e9d881bb660c", 2366, 49658},
		"4mod5-v1_24/pinned":          {"899b00c7cc1afe69c67b4b076ea98877d02a61f476578a2697923245cb59d136", 4960, 108847},
		"4mod5-v1_24/weighted":        {"e3a0c12f751949d7fab5ed6a8392d0d2116302f0ef3fc1b244a845aba97bb9c6", 4838, 105821},
		"ex-1_166/nil":                {"57c8e7851d07e63b9e9c24427126bd5f32d694cd68451e1a9e92a4ba0edb5be2", 2424, 36329},
		"ex-1_166/odd":                {"b7d04c078c49368921973a96af01ef3457c320e969eb501f4e4dd82f35fb8e53", 1303, 18491},
		"ex-1_166/pinned":             {"2dd363e506179a5a5c3eddeb504bdb776fa48a26516ea5b57a8af28975936977", 2714, 39022},
		"ex-1_166/qx5-subsets":        {"7cb0f65cffa6ab22cc9b1e8cc0a15264d94c74d2ee673f4f08f9f183d5cb33fb", 4326, 20815},
		"ex-1_166/weighted":           {"123abe8628c2278199fdb3e412d8ed0b58e4e5584946b6291636b9d151de584d", 2514, 36808},
		"ex-1_166/weighted-subsets":   {"971a9cbf67df2cae68b1a8cda6569d34c06328f29b77e995c76a57323e062c39", 1582, 7347},
		"ham3_102/nil":                {"f2a9d05759aec3d0f063b8d16512c10b9805f005e85929097a579664ea107cc3", 3028, 45412},
		"ham3_102/odd":                {"0d7128962e6963976ee69ebbcba288aa7315625d9194da3b6c0d317b696008f6", 1625, 23104},
		"ham3_102/pinned":             {"e053b14ab87c274563dc4a4497b2e4855501d823e56b20d9d44cc0a78179a7a0", 3306, 48061},
		"ham3_102/qx5-subsets":        {"a382bb83ce2dbf3d175fdafbe2abc82978e335db3d21e0b18dafa57fa15f575a", 5334, 25808},
		"ham3_102/weighted":           {"7920d17446dcd443830f5bc3aac9d96c90bcb61fe2cdbe525a6b406598920911", 3138, 46000},
		"ham3_102/weighted-subsets":   {"abc3163cd4ae68e1fb6fb223b6fccc0bea0b7b48c2942f79e73cc578e0fffef1", 1954, 9104},
		"mod5d1_63/nil":               {"a1eb2e080932269fc5531841b29f75d6a6505190bd91ff73fa3eb61f4d72b2f6", 3752, 84000},
		"mod5d1_63/odd":               {"94871198276faba33b622e6510ec381dce835a03b561a8127fe448de35c74c7b", 2018, 42526},
		"mod5d1_63/pinned":            {"d6fcd46eeb41537cf74e64a07a4b966a53104b380a351e842b1172a6b710be66", 4046, 87929},
		"mod5d1_63/weighted":          {"382f502d3c504a04d64aa885593ecadba8dd38754d170222d36f977db145826a", 3882, 84698},
		"mod5mils_65/nil":             {"c66db4acecbc658c9e69b5fca83db57a71598599f349a81cf2398dd9772f7425", 4678, 104957},
		"mod5mils_65/odd":             {"38f2d9132287ca898010ca1b498e62cfa7e7836ec53aaf64c3a2d3191378ab2e", 2366, 49658},
		"mod5mils_65/pinned":          {"988ad68a6bf69801d8479d961361546c5fbf797c9a9fab5b107d9401813a7d22", 4960, 108847},
		"mod5mils_65/weighted":        {"de74deac602b23c0c16ee95edfa50c83317d16d36f490983bc534c73d1466db0", 4838, 105821},
		"rd32-v0_66/nil":              {"e33ac7275e1b10274f1efbce3acacd99970220e8781b9bcd1023bff662f5e8fa", 4598, 86461},
		"rd32-v0_66/odd":              {"5ed368ceb992512520f9d9640e532d8da1844d63bbb2ad3e01a896e450e5ac10", 2326, 41010},
		"rd32-v0_66/pinned":           {"3f8d467af93582e704f9619d0e156af4d7f1e65efea9f26355c5aad4f591aa12", 4875, 89720},
		"rd32-v0_66/qx5-subsets":      {"7fb5795fe25376b855998eb025527e9838cb69a6cac44e3cbc688ef8ad50d89e", 16888, 138183},
		"rd32-v0_66/weighted":         {"06215b65a80a70715af53174fcb49274ae580fc63bfbe98b6254f07cf8a4599f", 4758, 87325},
		"rd32-v0_66/weighted-subsets": {"57d75633d249d6002693cb92790fd6fab7c3687db3cb0cb3b9a70877ca2db2a7", 3611, 27583},
		"rd32-v1_68/nil":              {"aab495303b6eebe2f7cadacfb6702ee645a530e777f96da310935620df134343", 4598, 86461},
		"rd32-v1_68/odd":              {"8fd2d663b59de67aff209b084056061920cd773a44d8fbfa286611a0150bd796", 2326, 41010},
		"rd32-v1_68/pinned":           {"b5f19706c6dd6da5e1691ac80b0d5bede83550d642389e11106e4a78c3b2bfdb", 4875, 89720},
		"rd32-v1_68/qx5-subsets":      {"b4579fc4370b000a2db9a3417b397c439e3029e104adbe0a6b97f574c1a07470", 16888, 138183},
		"rd32-v1_68/weighted":         {"276c15085c2451053d544acd7c5273e8e3a3c26f70fc03b471f1484b16281a90", 4758, 87325},
		"rd32-v1_68/weighted-subsets": {"65a70ff2bec2cc00128a818db850729bc83fcffe971229d9a2ae3dcaa7aa0f07", 3611, 27583},
	}

	qx4, wqx4, qx5 := arch.QX4(), weightedQX4(t), arch.QX5()
	got := map[string]goldenCNF{}
	for _, b := range revlib.Suite() {
		if b.CNOTs > 16 {
			continue
		}
		sk, err := circuit.ExtractSkeleton(b.Circuit)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		odd := make([]bool, sk.Len())
		for k := range odd {
			odd[k] = k%2 == 0 // before gates with an odd 1-based index
		}
		identity := make([]int, sk.NumQubits)
		for j := range identity {
			identity[j] = j
		}
		for _, v := range []struct {
			name string
			p    Problem
		}{
			{"nil", Problem{Skeleton: sk, Arch: qx4}},
			{"odd", Problem{Skeleton: sk, Arch: qx4, PermBefore: odd}},
			{"weighted", Problem{Skeleton: sk, Arch: wqx4}},
			{"pinned", Problem{Skeleton: sk, Arch: qx4, InitialMapping: identity}},
		} {
			s := sat.NewSolver()
			e, err := Encode(bg, v.p, cnf.NewBuilder(s))
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, v.name, err)
			}
			got[b.Name+"/"+v.name] = recordCNF(t, s, e.MaxCost, e.CostAtMostLit)
		}
		if sk.NumQubits > 4 {
			continue
		}
		for _, v := range []struct {
			name string
			a    *arch.Arch
		}{
			{"qx5-subsets", qx5},
			{"weighted-subsets", wqx4},
		} {
			s := sat.NewSolver()
			p := SubsetProblem{Skeleton: sk, Archs: subsetFamily(v.a, sk.NumQubits)}
			e, err := EncodeSubsets(bg, p, cnf.NewBuilder(s))
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, v.name, err)
			}
			got[b.Name+"/"+v.name] = recordCNF(t, s, e.MaxCost, e.CostAtMostLit)
		}
	}

	mismatch := len(got) != len(want)
	for name, g := range got {
		if w, ok := want[name]; !ok || w != g {
			mismatch = true
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
	if mismatch {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, name := range names {
			g := got[name]
			fmt.Fprintf(&sb, "\t\t%q: {%q, %d, %d},\n", name, g.sha, g.vars, g.clauses)
		}
		t.Errorf("%d encodings recorded, %d pinned; new records:\n%s", len(got), len(want), sb.String())
	}
}
