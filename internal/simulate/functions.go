package simulate

import (
	"fmt"

	"fairrank/internal/scoring"
)

// RandomAlphas are the mixing weights of the paper's five random task
// qualification functions f = α·LanguageTest + (1-α)·ApprovalRate,
// α ∈ {0, 0.3, 0.5, 0.7, 1}. The assignment to names follows the paper's
// discussion: f4 relies only on LanguageTest (α=1) and f5 only on
// ApprovalRate (α=0).
var RandomAlphas = map[string]float64{
	"f1": 0.5,
	"f2": 0.3,
	"f3": 0.7,
	"f4": 1.0,
	"f5": 0.0,
}

// RandomFunctionNames lists f1..f5 in table order.
var RandomFunctionNames = []string{"f1", "f2", "f3", "f4", "f5"}

// RandomFunctions builds f1–f5.
func RandomFunctions() ([]scoring.Func, error) {
	out := make([]scoring.Func, 0, len(RandomFunctionNames))
	for _, name := range RandomFunctionNames {
		alpha := RandomAlphas[name]
		f, err := scoring.NewLinear(name, map[string]float64{
			"LanguageTest": alpha,
			"ApprovalRate": 1 - alpha,
		})
		if err != nil {
			return nil, fmt.Errorf("simulate: build %s: %w", name, err)
		}
		out = append(out, f)
	}
	return out, nil
}

// BiasedFunctions builds the paper's four "unfair by design" scoring
// functions (scores are deterministic in the seed):
//
//   - f6 discriminates on gender: f6(w) > 0.8 if w is male, < 0.2 if female.
//   - f7 is biased on gender and nationality: male Americans > 0.8, female
//     Americans < 0.2, Indians of either gender in (0.5, 0.7), females of
//     other nationalities > 0.8, males of other nationalities < 0.2.
//   - f8 scores only females by nationality: American > 0.8, Indian in
//     (0.5, 0.8), other < 0.2. The paper leaves males unspecified; we give
//     them unbiased uniform scores in [0, 1).
//   - f9 correlates with ethnicity, language and year of birth "similarly
//     to previous ones"; the paper gives no exact rule table, so we use a
//     reconstruction in the same spirit: white English-speakers born before
//     1980 score > 0.8, Indian-ethnicity workers land in (0.5, 0.7),
//     African-Americans score < 0.2, everyone else lands mid-range.
func BiasedFunctions(seed uint64) ([]scoring.Func, error) {
	male := scoring.AttrIs("Gender", "Male")
	female := scoring.AttrIs("Gender", "Female")
	american := scoring.AttrIs("Country", "America")
	indianCountry := scoring.AttrIs("Country", "India")

	f6, err := scoring.NewRuleFunc("f6", seed+6, []scoring.Rule{
		{When: male, Lo: 0.8, Hi: 1.0},
		{When: female, Lo: 0.0, Hi: 0.2},
	})
	if err != nil {
		return nil, err
	}

	f7, err := scoring.NewRuleFunc("f7", seed+7, []scoring.Rule{
		{When: scoring.And(male, american), Lo: 0.8, Hi: 1.0},
		{When: scoring.And(female, american), Lo: 0.0, Hi: 0.2},
		{When: indianCountry, Lo: 0.5, Hi: 0.7},
		{When: female, Lo: 0.8, Hi: 1.0}, // female, other nationality
		{When: male, Lo: 0.0, Hi: 0.2},   // male, other nationality
	})
	if err != nil {
		return nil, err
	}

	f8, err := scoring.NewRuleFunc("f8", seed+8, []scoring.Rule{
		{When: scoring.And(female, american), Lo: 0.8, Hi: 1.0},
		{When: scoring.And(female, indianCountry), Lo: 0.5, Hi: 0.8},
		{When: female, Lo: 0.0, Hi: 0.2}, // female, other nationality
		{When: scoring.Any(), Lo: 0.0, Hi: 1.0},
	})
	if err != nil {
		return nil, err
	}

	white := scoring.AttrIs("Ethnicity", "White")
	africanAmerican := scoring.AttrIs("Ethnicity", "African-American")
	indianEthnicity := scoring.AttrIs("Ethnicity", "Indian")
	english := scoring.AttrIs("Language", "English")
	bornBefore1980 := scoring.AttrInRange("YearOfBirth", 1950, 1980)

	f9, err := scoring.NewRuleFunc("f9", seed+9, []scoring.Rule{
		{When: scoring.And(white, english, bornBefore1980), Lo: 0.8, Hi: 1.0},
		{When: indianEthnicity, Lo: 0.5, Hi: 0.7},
		{When: africanAmerican, Lo: 0.0, Hi: 0.2},
		{When: scoring.Any(), Lo: 0.3, Hi: 0.6},
	})
	if err != nil {
		return nil, err
	}

	return []scoring.Func{f6, f7, f8, f9}, nil
}
