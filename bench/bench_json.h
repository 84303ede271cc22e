// BenchJson: the one writer of the results/BENCH_<name>.json records.
//
// A bench's full run appends flat rows of strings/numbers and writes them as
// a JSON array; --smoke runs write nothing under results/. Records carry
// only model fields (simulated time and counts, never host wall time), so a
// full run reproduces its committed record byte for byte and scripts/ci.sh
// cmp's every one. Kept deliberately minimal (no nesting) so records stay
// grep-able and diff-able across changes.

#ifndef QUICKSAND_BENCH_BENCH_JSON_H_
#define QUICKSAND_BENCH_BENCH_JSON_H_

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

namespace quicksand {

// Writes `text` to `path`, creating its parent directory; returns false
// (after a warning) if the file cannot be opened — benches still print their
// tables, so this is non-fatal.
inline bool WriteResultFile(const std::string& path, const std::string& text) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  std::error_code ignored;
  if (!parent.empty()) {
    std::filesystem::create_directories(parent, ignored);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs(text.c_str(), f);
  std::fclose(f);
  return true;
}

class BenchJson {
 public:
  class Row {
   public:
    Row& Str(const char* key, const std::string& value) {
      Key(key);
      fields_ += '"';
      for (const char c : value) {
        if (c == '"' || c == '\\') {
          fields_ += '\\';
        }
        fields_ += c;
      }
      fields_ += '"';
      return *this;
    }

    Row& Int(const char* key, int64_t value) {
      Key(key);
      fields_ += std::to_string(value);
      return *this;
    }

    Row& Num(const char* key, double value) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", value);
      Key(key);
      fields_ += buf;
      return *this;
    }

    Row& Bool(const char* key, bool value) {
      Key(key);
      fields_ += value ? "true" : "false";
      return *this;
    }

   private:
    friend class BenchJson;

    void Key(const char* key) {
      if (!fields_.empty()) {
        fields_ += ", ";
      }
      fields_ += '"';
      fields_ += key;
      fields_ += "\": ";
    }

    std::string fields_;
  };

  Row& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  bool WriteFile(const std::string& path) const {
    std::string text = "[\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      text += "  {" + rows_[i].fields_ + "}";
      text += i + 1 < rows_.size() ? ",\n" : "\n";
    }
    text += "]\n";
    if (!WriteResultFile(path, text)) {
      return false;
    }
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
    return true;
  }

 private:
  std::vector<Row> rows_;
};

}  // namespace quicksand

#endif  // QUICKSAND_BENCH_BENCH_JSON_H_
