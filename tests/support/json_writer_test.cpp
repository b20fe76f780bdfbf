#include "benchutil/json_writer.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "obs/json_min.h"

namespace apa::bench {
namespace {

TEST(BenchJsonWriter, WritesBenchThenMetaThenRowsOneRowPerLine) {
  BenchJsonWriter writer("unit_bench");
  writer.meta().set("budget", 1.5).set("label", "a \"quoted\" name");
  for (int i = 0; i < 2; ++i) {
    writer.add_row(obs::JsonRecord().set("index", i).set("seconds", 0.25 * i));
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "apamm_json_writer.json").string();
  ASSERT_TRUE(writer.write(path));
  std::string text, error;
  ASSERT_TRUE(obstools::read_file(path, &text, &error)) << error;
  std::filesystem::remove(path);
  obstools::JsonValue doc;
  ASSERT_TRUE(obstools::parse_json(text, &doc, &error)) << error;

  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.object) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"bench", "budget", "label", "rows"}));
  EXPECT_EQ(doc.get_str("bench", ""), "unit_bench");
  EXPECT_EQ(doc.get_num("budget", 0.0), 1.5);
  EXPECT_EQ(doc.get_str("label", ""), "a \"quoted\" name");
  const obstools::JsonValue* rows = doc.find("rows");
  ASSERT_TRUE(rows != nullptr && rows->is_array());
  ASSERT_EQ(rows->array.size(), 2u);
  EXPECT_EQ(rows->array[1].get_num("seconds", 0.0), 0.25);
  // Diffable artifacts: each row is a line of its own.
  EXPECT_NE(text.find("\n    {\"index\": 0, \"seconds\": 0},\n"), std::string::npos);
  EXPECT_NE(text.find("\n    {\"index\": 1, \"seconds\": 0.25}\n"), std::string::npos);
}

}  // namespace
}  // namespace apa::bench
