// Property tests of the packed AtomTable against a reference map, and of
// the inline IdList that holds ground-rule atom ids.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ground/ground_program.h"
#include "util/rng.h"

namespace streamasp {
namespace {

class AtomTableTest : public ::testing::Test {
 protected:
  AtomTableTest() : symbols_(MakeSymbolTable()) {
    for (const char* name : {"p", "q", "edge", "f", "g"}) {
      names_.push_back(symbols_->Intern(name));
    }
  }

  /// A random ground term: small and large integers (beyond the inline
  /// packed range they escape to the arena), symbols, and compound terms.
  Term RandomTerm(Rng* rng, int depth = 0) {
    switch (rng->NextBounded(depth < 2 ? 5 : 4)) {
      case 0:
      case 1:
        return Term::Integer(static_cast<int64_t>(rng->NextBounded(40)) - 5);
      case 2:
        return Term::Integer(PackedTerm::kMaxInlineInt - 2 +
                             static_cast<int64_t>(rng->NextBounded(5)));
      case 3:
        return Term::Symbol(names_[rng->NextBounded(names_.size())]);
      default: {
        std::vector<Term> args;
        const size_t arity = 1 + rng->NextBounded(2);
        for (size_t i = 0; i < arity; ++i) {
          args.push_back(RandomTerm(rng, depth + 1));
        }
        return Term::Function(names_[3 + rng->NextBounded(2)],
                              std::move(args));
      }
    }
  }

  /// A random ground atom of arity 0..4 over a few predicates.
  Atom RandomAtom(Rng* rng) {
    std::vector<Term> args;
    const size_t arity = rng->NextBounded(5);
    for (size_t i = 0; i < arity; ++i) args.push_back(RandomTerm(rng));
    return Atom(names_[rng->NextBounded(3)], args);
  }

  SymbolTablePtr symbols_;
  std::vector<SymbolId> names_;
};

TEST_F(AtomTableTest, MatchesReferenceMapAcrossGrowthAndClear) {
  Rng rng(42);
  AtomTable table;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // Round 1 reuses the cleared table's capacity; round 2 also rehashes
    // past it.
    const int atoms = round == 2 ? 12000 : 5000;
    std::map<Atom, GroundAtomId> reference;
    std::vector<Atom> by_id;
    for (int i = 0; i < atoms; ++i) {
      const Atom atom = RandomAtom(&rng);
      auto [it, inserted] = reference.try_emplace(
          atom, static_cast<GroundAtomId>(by_id.size()));
      if (inserted) by_id.push_back(atom);
      ASSERT_EQ(table.Intern(atom), it->second) << atom.ToString(*symbols_);
    }
    ASSERT_EQ(table.size(), by_id.size());
    for (GroundAtomId id = 0; id < by_id.size(); ++id) {
      const Atom& atom = by_id[id];
      EXPECT_EQ(table.GetAtom(id), atom);
      EXPECT_EQ(table.Lookup(atom), id);
      EXPECT_EQ(table.Signature(id), atom.signature());
      ASSERT_EQ(table.PackedArity(id), atom.arity());
      for (uint32_t a = 0; a < atom.arity(); ++a) {
        EXPECT_EQ(table.PackedArgs(id)[a], PackedTerm(atom.args()[a]));
      }
    }
    // Misses: fresh random atoms the reference has never seen.
    for (int i = 0; i < 2000; ++i) {
      const Atom probe = RandomAtom(&rng);
      const auto it = reference.find(probe);
      EXPECT_EQ(table.Lookup(probe),
                it == reference.end() ? kInvalidGroundAtom : it->second);
    }
    EXPECT_EQ(table.size(), by_id.size()) << "Lookup must not intern";
    EXPECT_GT(table.ApproxBytes(), 0u);
    table.Clear();
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.Lookup(by_id.front()), kInvalidGroundAtom);
  }
}

TEST_F(AtomTableTest, PackedInterningAgreesWithAtomInterning) {
  Rng rng(7);
  AtomTable table;
  for (int i = 0; i < 500; ++i) {
    const Atom atom = RandomAtom(&rng);
    std::vector<PackedTerm> words;
    for (const Term& arg : atom.args()) words.push_back(PackedTerm(arg));
    const GroundAtomId id = table.Intern(atom);
    EXPECT_EQ(table.InternPacked(atom.predicate(), words.data(),
                                 atom.arity()),
              id);
    EXPECT_EQ(table.LookupPacked(atom.predicate(), words.data(),
                                 atom.arity()),
              id);
  }
  // The same words under another predicate or arity are other atoms.
  const PackedTerm one[] = {PackedTerm::Integer(1), PackedTerm::Integer(1)};
  const GroundAtomId p1 = table.InternPacked(names_[0], one, 1);
  const GroundAtomId p2 = table.InternPacked(names_[0], one, 2);
  const GroundAtomId q1 = table.InternPacked(names_[1], one, 1);
  EXPECT_NE(p1, p2);
  EXPECT_NE(p1, q1);
  EXPECT_NE(p2, q1);
}

TEST(IdListTest, BehavesLikeAVectorAcrossTheInlineBoundary) {
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    IdList list;
    std::vector<GroundAtomId> reference;
    const size_t n = rng.NextBounded(3 * IdList::kInline);
    for (size_t i = 0; i < n; ++i) {
      const GroundAtomId id = static_cast<GroundAtomId>(rng.NextBounded(9));
      list.push_back(id);
      reference.push_back(id);
    }
    ASSERT_EQ(std::vector<GroundAtomId>(list.begin(), list.end()), reference);

    IdList copy = list;
    IdList moved = std::move(copy);
    EXPECT_EQ(moved, list);
    EXPECT_TRUE(copy.empty());

    // Erase-remove, as the simplification pass does.
    list.erase(std::remove(list.begin(), list.end(), 4u), list.end());
    reference.erase(std::remove(reference.begin(), reference.end(), 4u),
                    reference.end());
    EXPECT_EQ(std::vector<GroundAtomId>(list.begin(), list.end()), reference);

    IdList assigned;
    assigned.assign(reference.begin(), reference.end());
    EXPECT_EQ(assigned, list);
    moved = assigned;
    EXPECT_EQ(moved, list);
  }
}

}  // namespace
}  // namespace streamasp
