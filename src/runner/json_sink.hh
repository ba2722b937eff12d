/**
 * @file
 * Structured result sink for sweeps: a minimal JSON value tree, a
 * file writer and a matching reader. Every converted bench emits one
 * `BENCH_<name>.json` artifact per run so the accuracy/rate tables
 * feed the performance trajectory without scraping console tables;
 * the reader lets experiment configs (`src/config`) round-trip
 * through the same representation.
 *
 * Deliberately tiny (objects, arrays, strings, numbers, bools) — no
 * external dependency.
 */

#ifndef COHERSIM_RUNNER_JSON_SINK_HH
#define COHERSIM_RUNNER_JSON_SINK_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace csim
{

/** One JSON value; objects preserve insertion order for stable diffs. */
class Json
{
  public:
    enum class Kind : std::uint8_t
    {
        null,
        boolean,
        integer,
        number,
        string,
        array,
        object,
    };

    Json() : kind_(Kind::null) {}
    Json(std::nullptr_t) : kind_(Kind::null) {}
    Json(bool b) : kind_(Kind::boolean), bool_(b) {}
    Json(double d) : kind_(Kind::number), num_(d) {}
    Json(int i) : kind_(Kind::integer), int_(i) {}
    Json(std::int64_t i) : kind_(Kind::integer), int_(i) {}
    Json(std::uint64_t u)
        : kind_(Kind::integer), int_(static_cast<std::int64_t>(u)) {}
    Json(const char *s) : kind_(Kind::string), str_(s) {}
    Json(std::string s) : kind_(Kind::string), str_(std::move(s)) {}

    static Json object();
    static Json array();

    /** Object access; inserts a null member on first use. */
    Json &operator[](const std::string &key);

    /** Append to an array. */
    void push(Json v);

    /** Serialize with 2-space indentation. */
    void dump(std::ostream &os, int indent = 0) const;
    std::string dump() const;

    /** @name Read access (for parsed documents) */
    /** @{ */
    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::null; }
    bool isBool() const { return kind_ == Kind::boolean; }
    bool isInt() const { return kind_ == Kind::integer; }
    /** Integer or floating number. */
    bool
    isNumber() const
    {
        return kind_ == Kind::integer || kind_ == Kind::number;
    }
    bool isString() const { return kind_ == Kind::string; }
    bool isArray() const { return kind_ == Kind::array; }
    bool isObject() const { return kind_ == Kind::object; }

    /** Typed extraction; panics when the kind does not match. */
    bool asBool() const;
    std::int64_t asInt() const;
    /** Accepts both integer and floating values. */
    double asDouble() const;
    const std::string &asString() const;

    /** Object member lookup; null when absent or not an object. */
    const Json *find(const std::string &key) const;

    /** Array elements (empty unless an array). */
    const std::vector<Json> &items() const;

    /** Object members in insertion order (empty unless an object). */
    const std::vector<std::pair<std::string, Json>> &entries() const;
    /** @} */

  private:
    static void escape(std::ostream &os, const std::string &s);

    Kind kind_;
    bool bool_ = false;
    std::int64_t int_ = 0;
    double num_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

/** Syntax error from parseJson(), with 1-based line/column. */
class JsonParseError : public std::runtime_error
{
  public:
    JsonParseError(const std::string &what, int line, int column)
        : std::runtime_error(what), line(line), column(column)
    {
    }

    int line;
    int column;
};

/**
 * Parse one JSON document (strict grammar, UTF-8 passed through,
 * \uXXXX escapes decoded for any code point — surrogate pairs
 * combine into their supplementary-plane character, and unpaired
 * surrogates are rejected as malformed). Numbers without '.', 'e' or
 * 'E' parse as integers, everything else as doubles, so a dump() →
 * parseJson() round trip preserves values bit-exactly. Throws
 * JsonParseError on malformed input, and on objects and arrays nested
 * more than 512 levels deep.
 */
Json parseJson(const std::string &text);

/** Read and parse @p path; fatal() when unreadable. */
Json readJsonFile(const std::string &path);

/**
 * Write @p root to @p path (atomically enough for bench artifacts:
 * truncate + write + flush). fatal()s when the file cannot be written.
 */
void writeJsonFile(const std::string &path, const Json &root);

/**
 * Standard envelope for a sweep artifact: bench name, worker count,
 * wall-clock seconds and an empty "rows" array for the caller to fill.
 */
Json benchArtifact(const std::string &bench, int jobs,
                   double wall_seconds);

} // namespace csim

#endif // COHERSIM_RUNNER_JSON_SINK_HH
