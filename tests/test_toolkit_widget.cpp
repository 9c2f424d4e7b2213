// Unit tests for the widget tree: structure, attributes, events, feedback.
#include <gtest/gtest.h>

#include "cosoft/toolkit/widget.hpp"

namespace cosoft::toolkit {
namespace {

TEST(WidgetTree, BuildsHierarchyWithPathnames) {
    WidgetTree tree;
    Widget* form = tree.root().add_child(WidgetClass::kForm, "main").value();
    Widget* query = form->add_child(WidgetClass::kForm, "queryForm").value();
    Widget* author = query->add_child(WidgetClass::kTextField, "author").value();

    EXPECT_EQ(author->path(), "main/queryForm/author");
    EXPECT_EQ(tree.find("main/queryForm/author"), author);
    EXPECT_EQ(tree.find("main"), form);
    EXPECT_EQ(tree.find("missing"), nullptr);
    EXPECT_EQ(tree.find("main/queryForm/nope"), nullptr);
    EXPECT_EQ(tree.size(), 3u);
}

TEST(WidgetTree, RejectsDuplicateAndInvalidNames) {
    WidgetTree tree;
    ASSERT_TRUE(tree.root().add_child(WidgetClass::kButton, "b").is_ok());
    EXPECT_FALSE(tree.root().add_child(WidgetClass::kButton, "b").is_ok());
    EXPECT_FALSE(tree.root().add_child(WidgetClass::kButton, "").is_ok());
    EXPECT_FALSE(tree.root().add_child(WidgetClass::kButton, "a/b").is_ok());
}

TEST(WidgetTree, RemoveChildFiresDestroyObserversDeepestFirst) {
    WidgetTree tree;
    Widget* a = tree.root().add_child(WidgetClass::kForm, "a").value();
    Widget* b = a->add_child(WidgetClass::kForm, "b").value();
    (void)b->add_child(WidgetClass::kButton, "c").value();

    std::vector<std::string> destroyed;
    tree.set_destroy_observer([&](const std::string& path) { destroyed.push_back(path); });
    ASSERT_TRUE(tree.root().remove_child("a").is_ok());
    EXPECT_EQ(destroyed, (std::vector<std::string>{"a/b/c", "a/b", "a"}));
    EXPECT_EQ(tree.size(), 0u);
}

TEST(WidgetTree, RemoveMissingChildFails) {
    WidgetTree tree;
    EXPECT_EQ(tree.root().remove_child("ghost").code(), ErrorCode::kUnknownObject);
}

TEST(WidgetAttributes, DefaultsComeFromSchema) {
    WidgetTree tree;
    Widget* field = tree.root().add_child(WidgetClass::kTextField, "f").value();
    EXPECT_EQ(field->text("value"), "");
    EXPECT_EQ(field->integer("maxlen"), 256);
    EXPECT_TRUE(field->flag("enabled"));
    EXPECT_TRUE(field->flag("visible"));
}

TEST(WidgetAttributes, SetAndTypedGetters) {
    WidgetTree tree;
    Widget* slider = tree.root().add_child(WidgetClass::kSlider, "s").value();
    ASSERT_TRUE(slider->set_attribute("value", 42.5).is_ok());
    EXPECT_DOUBLE_EQ(slider->real("value"), 42.5);

    Widget* menu = tree.root().add_child(WidgetClass::kMenu, "m").value();
    ASSERT_TRUE(menu->set_attribute("items", std::vector<std::string>{"a", "b"}).is_ok());
    EXPECT_EQ(menu->text_list("items").size(), 2u);
}

TEST(WidgetAttributes, UnknownAttributeRejected) {
    WidgetTree tree;
    Widget* b = tree.root().add_child(WidgetClass::kButton, "b").value();
    EXPECT_EQ(b->set_attribute("nonsense", std::int64_t{1}).code(), ErrorCode::kInvalidArgument);
}

TEST(WidgetAttributes, TypeMismatchConvertsWhenPossible) {
    WidgetTree tree;
    Widget* slider = tree.root().add_child(WidgetClass::kSlider, "s").value();
    // int -> real conversion is sensible and accepted.
    ASSERT_TRUE(slider->set_attribute("value", std::int64_t{7}).is_ok());
    EXPECT_DOUBLE_EQ(slider->real("value"), 7.0);
    // text "3.5" -> real parses.
    ASSERT_TRUE(slider->set_attribute("value", std::string{"3.5"}).is_ok());
    EXPECT_DOUBLE_EQ(slider->real("value"), 3.5);
    // unparseable text -> error.
    EXPECT_FALSE(slider->set_attribute("value", std::string{"abc"}).is_ok());
}

TEST(WidgetAttributes, ObserverFiresOnEverySet) {
    WidgetTree tree;
    Widget* f = tree.root().add_child(WidgetClass::kTextField, "f").value();
    int notifications = 0;
    tree.set_attribute_observer([&](Widget&, std::string_view) { ++notifications; });
    (void)f->set_attribute("value", std::string{"x"});
    (void)f->set_attribute("value", std::string{"y"});
    EXPECT_EQ(notifications, 2);
}

TEST(WidgetCallbacks, FireOnEmitInRegistrationOrder) {
    WidgetTree tree;
    Widget* b = tree.root().add_child(WidgetClass::kButton, "b").value();
    std::vector<int> order;
    b->add_callback(EventType::kActivated, [&](Widget&, const Event&) { order.push_back(1); });
    b->add_callback(EventType::kActivated, [&](Widget&, const Event&) { order.push_back(2); });
    b->emit(b->make_event(EventType::kActivated));
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(b->callback_count(EventType::kActivated), 2u);
}

TEST(WidgetCallbacks, DisabledWidgetIgnoresEmit) {
    WidgetTree tree;
    Widget* f = tree.root().add_child(WidgetClass::kTextField, "f").value();
    f->set_enabled(false);
    f->emit(f->make_event(EventType::kValueChanged, std::string{"nope"}));
    EXPECT_EQ(f->text("value"), "");
}

struct FeedbackCase {
    WidgetClass cls;
    EventType type;
    AttributeValue payload;
    std::string attribute;      // attribute expected to change
    AttributeValue expected;    // value after feedback
};

// Names each case in test listings (and so in ctest names) by what it
// exercises; gtest's default byte dump of the case embeds heap pointers.
void PrintTo(const FeedbackCase& c, std::ostream* os) {
    *os << to_string(c.cls) << ' ' << to_string(c.type) << " sets " << c.attribute;
}

class FeedbackTest : public ::testing::TestWithParam<FeedbackCase> {};

TEST_P(FeedbackTest, AppliesAndUndoes) {
    const FeedbackCase& c = GetParam();
    WidgetTree tree;
    Widget* w = tree.root().add_child(c.cls, "w").value();
    const AttributeValue before = w->attribute(c.attribute);

    const Event e = w->make_event(c.type, c.payload);
    const FeedbackUndo undo = w->apply_feedback(e);
    EXPECT_EQ(w->attribute(c.attribute), c.expected) << to_string(c.type);

    w->undo_feedback(undo);
    EXPECT_EQ(w->attribute(c.attribute), before) << "undo of " << to_string(c.type);
}

INSTANTIATE_TEST_SUITE_P(
    AllEventKinds, FeedbackTest,
    ::testing::Values(
        FeedbackCase{WidgetClass::kTextField, EventType::kValueChanged, std::string{"hi"}, "value",
                     std::string{"hi"}},
        FeedbackCase{WidgetClass::kSlider, EventType::kValueChanged, 5.0, "value", 5.0},
        FeedbackCase{WidgetClass::kToggle, EventType::kValueChanged, true, "value", true},
        FeedbackCase{WidgetClass::kLabel, EventType::kValueChanged, std::string{"txt"}, "label",
                     std::string{"txt"}},
        FeedbackCase{WidgetClass::kImage, EventType::kValueChanged, std::string{"pic.png"}, "source",
                     std::string{"pic.png"}},
        FeedbackCase{WidgetClass::kMenu, EventType::kSelectionChanged, std::string{"b"}, "selection",
                     std::string{"b"}},
        FeedbackCase{WidgetClass::kList, EventType::kItemAdded, std::string{"item"}, "items",
                     std::vector<std::string>{"item"}},
        FeedbackCase{WidgetClass::kCanvas, EventType::kStroke, std::string{"line(0,0,1,1)"}, "strokes",
                     std::vector<std::string>{"line(0,0,1,1)"}},
        FeedbackCase{WidgetClass::kTable, EventType::kItemAdded, std::string{"row1"}, "rows",
                     std::vector<std::string>{"row1"}},
        FeedbackCase{WidgetClass::kTextField, EventType::kKeystroke, std::string{"a"}, "value",
                     std::string{"a"}}));

TEST(Feedback, ItemRemovedDeletesFirstMatch) {
    WidgetTree tree;
    Widget* list = tree.root().add_child(WidgetClass::kList, "l").value();
    ASSERT_TRUE(list->set_attribute("items", std::vector<std::string>{"a", "b", "a"}).is_ok());
    const auto undo = list->apply_feedback(list->make_event(EventType::kItemRemoved, std::string{"a"}));
    EXPECT_EQ(list->text_list("items"), (std::vector<std::string>{"b", "a"}));
    list->undo_feedback(undo);
    EXPECT_EQ(list->text_list("items"), (std::vector<std::string>{"a", "b", "a"}));
}

TEST(Feedback, ClearedResetsCollectionAndSelection) {
    WidgetTree tree;
    Widget* list = tree.root().add_child(WidgetClass::kList, "l").value();
    ASSERT_TRUE(list->set_attribute("items", std::vector<std::string>{"a", "b"}).is_ok());
    ASSERT_TRUE(list->set_attribute("selection", std::string{"a"}).is_ok());
    const auto undo = list->apply_feedback(list->make_event(EventType::kCleared));
    EXPECT_TRUE(list->text_list("items").empty());
    EXPECT_EQ(list->text("selection"), "");
    list->undo_feedback(undo);
    EXPECT_EQ(list->text_list("items").size(), 2u);
    EXPECT_EQ(list->text("selection"), "a");
}

TEST(Feedback, KeystrokesAppend) {
    WidgetTree tree;
    Widget* f = tree.root().add_child(WidgetClass::kTextField, "f").value();
    for (const char* k : {"h", "e", "y"}) {
        (void)f->apply_feedback(f->make_event(EventType::kKeystroke, std::string{k}));
    }
    EXPECT_EQ(f->text("value"), "hey");
}

TEST(Feedback, ActivatedHasNoStateEffect) {
    WidgetTree tree;
    Widget* b = tree.root().add_child(WidgetClass::kButton, "b").value();
    const auto undo = b->apply_feedback(b->make_event(EventType::kActivated));
    EXPECT_TRUE(undo.empty());
}

TEST(WidgetTypes, EveryClassHasSchemaAndName) {
    for (std::size_t i = 0; i < kWidgetClassCount; ++i) {
        const auto cls = static_cast<WidgetClass>(i);
        const WidgetTypeInfo& info = type_info(cls);
        EXPECT_EQ(info.cls, cls);
        EXPECT_GE(info.attributes.size(), 8u);  // at least the common set
        EXPECT_NE(to_string(cls), "?");
        EXPECT_EQ(widget_class_from_string(to_string(cls)), cls);
    }
    EXPECT_EQ(widget_class_from_string("flux-capacitor"), std::nullopt);
}

TEST(WidgetTypes, RelevantAttributesMatchThePaperExamples) {
    // "two text input fields may have different size and fonts, but just
    // share the same content"
    const auto relevant = type_info(WidgetClass::kTextField).relevant_attributes();
    EXPECT_EQ(relevant, std::vector<std::string>{"value"});
    EXPECT_FALSE(type_info(WidgetClass::kTextField).find_attribute("font")->relevant);
    EXPECT_FALSE(type_info(WidgetClass::kTextField).find_attribute("width")->relevant);
}

TEST(Events, CodecRoundTrip) {
    Event e;
    e.type = EventType::kSelectionChanged;
    e.path = "tori/query/authorOp";
    e.payload = std::string{"substring"};
    e.detail = "mouse";
    ByteWriter w;
    encode(w, e);
    ByteReader r{w.data()};
    EXPECT_EQ(decode_event(r), e);
    EXPECT_TRUE(r.exhausted());
}

TEST(WidgetTree, ReorderChildrenMatchesRequestedOrder) {
    WidgetTree tree;
    Widget* f = tree.root().add_child(WidgetClass::kForm, "f").value();
    for (const char* n : {"a", "b", "c", "d"}) (void)f->add_child(WidgetClass::kButton, n);
    f->reorder_children({"c", "a"});
    std::vector<std::string> names;
    for (const Widget* c : f->children()) names.push_back(c->name());
    // Listed names first in the given order; the rest keep relative order.
    EXPECT_EQ(names, (std::vector<std::string>{"c", "a", "b", "d"}));
}

TEST(WidgetTree, EventObserverSeesAllFiredEvents) {
    WidgetTree tree;
    Widget* f = tree.root().add_child(WidgetClass::kTextField, "f").value();
    std::vector<EventType> seen;
    tree.set_event_observer([&](Widget&, const Event& e) { seen.push_back(e.type); });
    f->emit(f->make_event(EventType::kValueChanged, std::string{"x"}));
    f->fire_callbacks(f->make_event(EventType::kKeystroke, std::string{"k"}));
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], EventType::kValueChanged);
    EXPECT_EQ(seen[1], EventType::kKeystroke);
}

TEST(Visit, CoversWholeSubtree) {
    WidgetTree tree;
    Widget* a = tree.root().add_child(WidgetClass::kForm, "a").value();
    (void)a->add_child(WidgetClass::kButton, "b");
    (void)a->add_child(WidgetClass::kButton, "c");
    int count = 0;
    std::as_const(*a).visit([&](const Widget&) { ++count; });
    EXPECT_EQ(count, 3);
}

}  // namespace
}  // namespace cosoft::toolkit
