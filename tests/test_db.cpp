// Unit tests for the mini relational engine behind TORI.
#include <gtest/gtest.h>

#include <ostream>

#include "cosoft/db/database.hpp"

namespace cosoft::db {
namespace {

Database small_db() {
    Database d{"test"};
    Table* t = d.create_table("papers", {{"author", ColumnType::kText},
                                         {"title", ColumnType::kText},
                                         {"year", ColumnType::kInt}})
                   .value();
    (void)t->insert({{std::string{"Zhao"}, std::string{"Flexible Communication"}, std::int64_t{1994}}});
    (void)t->insert({{std::string{"Hoppe"}, std::string{"Classroom Interaction"}, std::int64_t{1993}}});
    (void)t->insert({{std::string{"Stefik"}, std::string{"WYSIWIS Revised"}, std::int64_t{1987}}});
    (void)t->insert({{std::string{"Ellis"}, std::string{"Groupware Issues"}, std::int64_t{1990}}});
    return d;
}

TEST(Table, SchemaValidation) {
    Database d{"x"};
    Table* t = d.create_table("t", {{"a", ColumnType::kText}, {"n", ColumnType::kInt}}).value();
    EXPECT_TRUE(t->insert({{std::string{"ok"}, std::int64_t{1}}}).is_ok());
    EXPECT_FALSE(t->insert({{std::string{"bad-arity"}}}).is_ok());
    EXPECT_FALSE(t->insert({{std::int64_t{1}, std::int64_t{2}}}).is_ok());  // type mismatch
    EXPECT_EQ(t->rows().size(), 1u);
}

TEST(Database, DuplicateTableRejected) {
    Database d{"x"};
    ASSERT_TRUE(d.create_table("t", {{"a", ColumnType::kText}}).is_ok());
    EXPECT_FALSE(d.create_table("t", {{"a", ColumnType::kText}}).is_ok());
    EXPECT_EQ(d.table_names(), std::vector<std::string>{"t"});
}

TEST(Query, NoConditionsReturnsEverything) {
    const Database d = small_db();
    const auto r = d.execute({.table = "papers"});
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().rows.size(), 4u);
    EXPECT_EQ(r.value().columns.size(), 3u);
    EXPECT_EQ(r.value().total_matches, 4u);
}

TEST(Query, EmptyOperandConditionIsIgnored) {
    const Database d = small_db();
    const auto r = d.execute({.table = "papers", .conditions = {{"author", CompareOp::kEquals, ""}}});
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().rows.size(), 4u);
}

struct OpCase {
    CompareOp op;
    const char* column;
    const char* operand;
    std::size_t expected;
};

// gtest prints the parameter into each ctest name. Without this it dumps
// the struct's bytes, including the two string-literal addresses, which
// move from run to run under ASLR. The operator is already in the name.
void PrintTo(const OpCase& c, std::ostream* os) { *os << c.column << " '" << c.operand << "'"; }

class CompareOpTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(CompareOpTest, MatchesExpectedRowCount) {
    const Database d = small_db();
    const OpCase& c = GetParam();
    const auto r = d.execute({.table = "papers", .conditions = {{c.column, c.op, c.operand}}});
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().rows.size(), c.expected) << to_string(c.op) << " " << c.operand;
}

constexpr OpCase kOpCases[] = {
    {CompareOp::kEquals, "author", "Zhao", 1},
    {CompareOp::kNotEquals, "author", "Zhao", 3},
    {CompareOp::kSubstring, "title", "i", 3},  // "Groupware Issues" has no lowercase i
    {CompareOp::kSubstring, "title", "WYSIWIS", 1},
    {CompareOp::kPrefix, "author", "H", 1},
    {CompareOp::kLikeOneOf, "author", "Zhao, Hoppe", 2},
    {CompareOp::kLikeOneOf, "author", "Nobody,Zhao", 1},
    {CompareOp::kLess, "year", "1990", 1},
    {CompareOp::kLessEq, "year", "1990", 2},
    {CompareOp::kGreater, "year", "1990", 2},
    {CompareOp::kGreaterEq, "year", "1990", 3},
    {CompareOp::kEquals, "year", "1994", 1},
};

INSTANTIATE_TEST_SUITE_P(
    Operators, CompareOpTest, ::testing::ValuesIn(kOpCases),
    [](const ::testing::TestParamInfo<OpCase>& info) {
        std::string name{to_string(info.param.op)};
        for (char& c : name) {
            if (c == '-') c = '_';
        }
        return name + "_" + std::to_string(info.index);
    });

TEST(Query, ConditionsAreConjunctive) {
    const Database d = small_db();
    const auto r = d.execute({.table = "papers",
                              .conditions = {{"title", CompareOp::kSubstring, "i"},
                                             {"year", CompareOp::kGreaterEq, "1993"}}});
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().rows.size(), 2u);
}

TEST(Query, ProjectionSelectsView) {
    const Database d = small_db();
    const auto r = d.execute({.table = "papers", .projection = {"year", "author"}});
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().columns, (std::vector<std::string>{"year", "author"}));
    EXPECT_EQ(r.value().rows[0], (std::vector<std::string>{"1994", "Zhao"}));
}

TEST(Query, LimitCapsRowsButCountsMatches) {
    const Database d = small_db();
    const auto r = d.execute({.table = "papers", .limit = 2});
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().rows.size(), 2u);
    EXPECT_EQ(r.value().total_matches, 4u);
}

TEST(Query, ErrorsOnUnknownTableColumnOrBadOperand) {
    const Database d = small_db();
    EXPECT_FALSE(d.execute({.table = "ghosts"}).is_ok());
    EXPECT_FALSE(d.execute({.table = "papers", .conditions = {{"ghost", CompareOp::kEquals, "x"}}}).is_ok());
    EXPECT_FALSE(
        d.execute({.table = "papers", .conditions = {{"year", CompareOp::kEquals, "not-a-number"}}}).is_ok());
    EXPECT_FALSE(d.execute({.table = "papers", .projection = {"ghost"}}).is_ok());
}

TEST(Query, TextOnlyOperatorsNeverMatchNumbers) {
    const Database d = small_db();
    const auto r =
        d.execute({.table = "papers", .conditions = {{"year", CompareOp::kSubstring, "19"}}});
    ASSERT_TRUE(r.is_ok());
    EXPECT_TRUE(r.value().rows.empty());
}

TEST(Query, ExecutionCounterAdvances) {
    const Database d = small_db();
    EXPECT_EQ(d.queries_executed(), 0u);
    (void)d.execute({.table = "papers"});
    (void)d.execute({.table = "papers"});
    EXPECT_EQ(d.queries_executed(), 2u);
}

TEST(CompareOps, NamesRoundTrip) {
    for (const std::string& name : compare_op_names()) {
        const auto op = compare_op_from_string(name);
        ASSERT_TRUE(op.has_value()) << name;
        EXPECT_EQ(to_string(*op), name);
    }
    EXPECT_FALSE(compare_op_from_string("bogus").has_value());
}

TEST(LiteratureDb, DeterministicAndQueryable) {
    const Database d1 = make_literature_db("lib", 500);
    const Database d2 = make_literature_db("lib", 500);
    const auto r1 = d1.execute({.table = "papers", .conditions = {{"author", CompareOp::kEquals, "Zhao"}}});
    const auto r2 = d2.execute({.table = "papers", .conditions = {{"author", CompareOp::kEquals, "Zhao"}}});
    ASSERT_TRUE(r1.is_ok());
    EXPECT_GT(r1.value().rows.size(), 0u);
    EXPECT_EQ(r1.value().rows.size(), r2.value().rows.size());

    const auto years =
        d1.execute({.table = "papers", .conditions = {{"year", CompareOp::kGreaterEq, "1985"}}});
    EXPECT_EQ(years.value().total_matches, 500u);
}

TEST(Values, DisplayRendering) {
    EXPECT_EQ(to_display_string(Value{std::string{"x"}}), "x");
    EXPECT_EQ(to_display_string(Value{std::int64_t{42}}), "42");
    EXPECT_EQ(to_display_string(Value{2.5}), "2.5");
}

}  // namespace
}  // namespace cosoft::db
