#include <gtest/gtest.h>

#include "chorel/chorel.h"
#include "htmldiff/html.h"
#include "htmldiff/htmldiff.h"

namespace doem {
namespace htmldiff {
namespace {

// -------------------------------------------------------------- Parser

TEST(HtmlParserTest, BasicStructure) {
  auto db = ParseHtml(
      "<html><body><h1>Guide</h1><p>Hello <b>world</b></p></body></html>");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  NodeId html = db->Child(db->root(), "html");
  ASSERT_NE(html, kInvalidNode);
  NodeId body = db->Child(html, "body");
  NodeId h1 = db->Child(body, "h1");
  EXPECT_EQ(db->GetValue(db->Child(h1, "text"))->AsString(), "Guide");
  NodeId p = db->Child(body, "p");
  EXPECT_EQ(db->GetValue(db->Child(p, "text"))->AsString(), "Hello");
  NodeId b = db->Child(p, "b");
  EXPECT_EQ(db->GetValue(db->Child(b, "text"))->AsString(), "world");
}

TEST(HtmlParserTest, AttributesAndVoidElements) {
  auto db = ParseHtml(
      "<p class=\"intro\" id=x>line<br>two<img src='pic.png'/></p>");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  NodeId p = db->Child(db->root(), "p");
  EXPECT_EQ(db->GetValue(db->Child(p, "@class"))->AsString(), "intro");
  EXPECT_EQ(db->GetValue(db->Child(p, "@id"))->AsString(), "x");
  EXPECT_NE(db->Child(p, "br"), kInvalidNode);
  NodeId img = db->Child(p, "img");
  EXPECT_EQ(db->GetValue(db->Child(img, "@src"))->AsString(), "pic.png");
}

TEST(HtmlParserTest, CommentsDoctypeEntities) {
  auto db = ParseHtml(
      "<!DOCTYPE html><!-- hi --><p>a &amp; b &lt;c&gt; &#65;</p>");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  NodeId p = db->Child(db->root(), "p");
  EXPECT_EQ(db->GetValue(db->Child(p, "text"))->AsString(), "a & b <c> A");
}

TEST(HtmlParserTest, Errors) {
  EXPECT_FALSE(ParseHtml("<p>unclosed").ok());
  EXPECT_FALSE(ParseHtml("<p></q>").ok());
  EXPECT_FALSE(ParseHtml("<p><!-- unterminated</p>").ok());
  EXPECT_FALSE(ParseHtml("< p>bad tag</p>").ok());
  EXPECT_FALSE(ParseHtml("</p>").ok());
}

TEST(HtmlParserTest, RenderRoundTrip) {
  std::string html =
      "<html><body><h1>Guide</h1><ul><li>one</li><li a=\"1\">two</li>"
      "</ul></body></html>";
  auto db = ParseHtml(html);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(RenderHtml(*db), html);
}

TEST(HtmlParserTest, EveryParsedTreeIsWellFormed) {
  // HtmlDiff hands ParseHtml's output to DiffSnapshots, which checks only
  // the root: every accepted input must give a valid database. Each
  // prefix of a document with every construct is one more input.
  const std::string html =
      "<!DOCTYPE html><!-- c --><html><body class=\"x\" id=y><h1>T</h1>"
      "top text<p>a &amp; b<br>c<img src='p.png'/></p><ul><li>one</li>"
      "<li a=\"1\" b>two</li></ul><hr/></body></html>trailing";
  size_t accepted = 0;
  for (size_t n = 0; n <= html.size(); ++n) {
    auto db = ParseHtml(html.substr(0, n));
    if (!db.ok()) continue;
    ++accepted;
    EXPECT_TRUE(db->Validate().ok()) << "prefix " << n;
  }
  EXPECT_GT(accepted, 2u);
}

// -------------------------------------------------------------- Differ

TEST(HtmlDiffTest, InsertionMarked) {
  auto r = HtmlDiff("<ul><li>Janta</li></ul>",
                    "<ul><li>Janta</li><li>Hakata</li></ul>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->markup.find("<ins class=\"hd-new\"><li>Hakata</li></ins>"),
            std::string::npos)
      << r->markup;
  EXPECT_EQ(r->markup.find("<ins class=\"hd-new\"><li>Janta"),
            std::string::npos)
      << "unchanged entry not marked: " << r->markup;
  EXPECT_GE(r->stats.creations, 1u);
}

TEST(HtmlDiffTest, DeletionKeptAndMarked) {
  auto r = HtmlDiff("<ul><li>Janta</li><li>Hakata</li></ul>",
                    "<ul><li>Janta</li></ul>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->markup.find("<del class=\"hd-del\"><li>Hakata</li></del>"),
            std::string::npos)
      << r->markup;
}

TEST(HtmlDiffTest, TextUpdateMarkedWithOldValue) {
  auto r = HtmlDiff("<p>price: <b>10</b></p>", "<p>price: <b>20</b></p>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->markup.find("data-old=\"10\""), std::string::npos)
      << r->markup;
  EXPECT_NE(r->markup.find(">20</span>"), std::string::npos) << r->markup;
  EXPECT_EQ(r->stats.updates, 1u);
}

TEST(HtmlDiffTest, IdenticalPagesUnmarked) {
  std::string page = "<html><body><p>static</p></body></html>";
  auto r = HtmlDiff(page, page);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->markup.find("hd-"), std::string::npos);
  EXPECT_EQ(r->markup, page);
}

TEST(HtmlDiffTest, ChangeQueriesOverThePage) {
  // Section 1.1's point: instead of browsing the marked-up page, query
  // the changes. The DOEM database built by htmldiff supports Chorel.
  auto r = HtmlDiff(
      "<guide><restaurant><name>Janta</name></restaurant></guide>",
      "<guide><restaurant><name>Janta</name></restaurant>"
      "<restaurant><name>Hakata</name></restaurant></guide>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto q = chorel::RunChorel(r->doem, "select guide.<add>restaurant",
                             chorel::Strategy::kDirect);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->rows.size(), 1u) << "find all new restaurant entries";
}

TEST(HtmlDiffTest, ParserErrorsPropagate) {
  EXPECT_FALSE(HtmlDiff("<p>ok</p>", "<broken").ok());
  EXPECT_FALSE(HtmlDiff("<broken", "<p>ok</p>").ok());
}

}  // namespace
}  // namespace htmldiff
}  // namespace doem
