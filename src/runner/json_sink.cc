#include "runner/json_sink.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/logging.hh"

namespace csim
{

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::object;
    return j;
}

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::array;
    return j;
}

Json &
Json::operator[](const std::string &key)
{
    panic_if(kind_ != Kind::object,
             "Json::operator[] on a non-object value");
    for (auto &[k, v] : obj_) {
        if (k == key)
            return v;
    }
    obj_.emplace_back(key, Json());
    return obj_.back().second;
}

void
Json::push(Json v)
{
    panic_if(kind_ != Kind::array, "Json::push on a non-array value");
    arr_.push_back(std::move(v));
}

void
Json::escape(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
Json::dump(std::ostream &os, int indent) const
{
    const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    const std::string pad1(static_cast<std::size_t>(indent + 1) * 2,
                           ' ');
    switch (kind_) {
      case Kind::null:
        os << "null";
        break;
      case Kind::boolean:
        os << (bool_ ? "true" : "false");
        break;
      case Kind::integer:
        os << int_;
        break;
      case Kind::number:
        if (std::isfinite(num_)) {
            std::ostringstream tmp;
            tmp.precision(std::numeric_limits<double>::max_digits10);
            tmp << num_;
            os << tmp.str();
        } else {
            os << "null";  // JSON has no NaN/Inf
        }
        break;
      case Kind::string:
        escape(os, str_);
        break;
      case Kind::array:
        if (arr_.empty()) {
            os << "[]";
            break;
        }
        os << "[\n";
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            os << pad1;
            arr_[i].dump(os, indent + 1);
            os << (i + 1 < arr_.size() ? ",\n" : "\n");
        }
        os << pad << ']';
        break;
      case Kind::object:
        if (obj_.empty()) {
            os << "{}";
            break;
        }
        os << "{\n";
        for (std::size_t i = 0; i < obj_.size(); ++i) {
            os << pad1;
            escape(os, obj_[i].first);
            os << ": ";
            obj_[i].second.dump(os, indent + 1);
            os << (i + 1 < obj_.size() ? ",\n" : "\n");
        }
        os << pad << '}';
        break;
    }
}

std::string
Json::dump() const
{
    std::ostringstream os;
    dump(os, 0);
    return os.str();
}

bool
Json::asBool() const
{
    panic_if(kind_ != Kind::boolean, "Json::asBool on a non-boolean");
    return bool_;
}

std::int64_t
Json::asInt() const
{
    panic_if(kind_ != Kind::integer, "Json::asInt on a non-integer");
    return int_;
}

double
Json::asDouble() const
{
    if (kind_ == Kind::integer)
        return static_cast<double>(int_);
    panic_if(kind_ != Kind::number, "Json::asDouble on a non-number");
    return num_;
}

const std::string &
Json::asString() const
{
    panic_if(kind_ != Kind::string, "Json::asString on a non-string");
    return str_;
}

const Json *
Json::find(const std::string &key) const
{
    if (kind_ != Kind::object)
        return nullptr;
    for (const auto &[k, v] : obj_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const std::vector<Json> &
Json::items() const
{
    static const std::vector<Json> empty;
    return kind_ == Kind::array ? arr_ : empty;
}

const std::vector<std::pair<std::string, Json>> &
Json::entries() const
{
    static const std::vector<std::pair<std::string, Json>> empty;
    return kind_ == Kind::object ? obj_ : empty;
}

namespace
{

/** Recursive-descent parser over the strict JSON grammar. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    Json
    parseDocument()
    {
        Json value = parseValue();
        skipWhitespace();
        if (pos_ != text_.size())
            fail("trailing content after the JSON document");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        int line = 1, column = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                column = 1;
            } else {
                ++column;
            }
        }
        throw JsonParseError(msgCat(what, " at line ", line,
                                    ", column ", column),
                             line, column);
    }

    bool
    atEnd() const
    {
        return pos_ >= text_.size();
    }

    char
    peek() const
    {
        if (atEnd())
            fail("unexpected end of input");
        return text_[pos_];
    }

    char
    next()
    {
        const char c = peek();
        ++pos_;
        return c;
    }

    void
    skipWhitespace()
    {
        while (!atEnd()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    void
    expect(char c)
    {
        if (next() != c)
            fail(msgCat("expected '", c, "'"));
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (atEnd() || text_[pos_] != *p)
                fail(msgCat("invalid literal (expected \"", word,
                            "\")"));
            ++pos_;
        }
    }

    Json
    parseValue()
    {
        skipWhitespace();
        switch (peek()) {
          case '{': case '[': {
            // The parser recurses per level: the limit keeps hostile
            // input such as a long run of '[' off the stack's end.
            if (depth_ == maxDepth)
                fail(msgCat("nesting deeper than ", maxDepth,
                            " levels"));
            ++depth_;
            Json value = peek() == '{' ? parseObject() : parseArray();
            --depth_;
            return value;
          }
          case '"': return Json(parseString());
          case 't': literal("true"); return Json(true);
          case 'f': literal("false"); return Json(false);
          case 'n': literal("null"); return Json(nullptr);
          default: return parseNumber();
        }
    }

    Json
    parseObject()
    {
        expect('{');
        Json obj = Json::object();
        skipWhitespace();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        for (;;) {
            skipWhitespace();
            if (peek() != '"')
                fail("expected an object key string");
            const std::string key = parseString();
            skipWhitespace();
            expect(':');
            obj[key] = parseValue();
            skipWhitespace();
            const char c = next();
            if (c == '}')
                return obj;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    Json
    parseArray()
    {
        expect('[');
        Json arr = Json::array();
        skipWhitespace();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        for (;;) {
            arr.push(parseValue());
            skipWhitespace();
            const char c = next();
            if (c == ']')
                return arr;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    /** Four hex digits of a \\uXXXX escape. */
    unsigned
    readHex4()
    {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = next();
            code <<= 4;
            if (h >= '0' && h <= '9')
                code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
            else
                fail("invalid \\u escape");
        }
        return code;
    }

    /** Append one Unicode code point (<= U+10FFFF) as UTF-8. */
    static void
    appendUtf8(std::string &out, unsigned code)
    {
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            const char c = next();
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            const char esc = next();
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                unsigned code = readHex4();
                // Surrogate halves are not characters: a high half
                // must combine with an immediately following \u-
                // escaped low half into one supplementary-plane code
                // point; anything else is malformed JSON.
                if (code >= 0xdc00 && code <= 0xdfff)
                    fail("lone low surrogate in \\u escape");
                if (code >= 0xd800 && code <= 0xdbff) {
                    if (next() != '\\' || next() != 'u')
                        fail("high surrogate not followed by a "
                             "\\u-escaped low surrogate");
                    const unsigned low = readHex4();
                    if (low < 0xdc00 || low > 0xdfff)
                        fail("high surrogate followed by a non-"
                             "surrogate \\u escape");
                    code = 0x10000 + ((code - 0xd800) << 10) +
                           (low - 0xdc00);
                }
                appendUtf8(out, code);
                break;
              }
              default: fail("unknown escape sequence");
            }
        }
    }

    Json
    parseNumber()
    {
        const std::size_t start = pos_;
        bool floating = false;
        if (!atEnd() && text_[pos_] == '-')
            ++pos_;
        while (!atEnd()) {
            const char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                floating = floating || c == '.' || c == 'e' ||
                           c == 'E';
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start)
            fail("expected a value");
        const std::string token =
            text_.substr(start, pos_ - start);
        try {
            if (!floating)
                return Json(
                    static_cast<std::int64_t>(std::stoll(token)));
            return Json(std::stod(token));
        } catch (const std::logic_error &) {
            // Integer overflow (or a stray sign): fall back to
            // double, then report truly malformed tokens.
            try {
                return Json(std::stod(token));
            } catch (const std::logic_error &) {
                fail(msgCat("malformed number \"", token, "\""));
            }
        }
    }

    static constexpr int maxDepth = 512;

    const std::string &text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

Json
parseJson(const std::string &text)
{
    return JsonParser(text).parseDocument();
}

Json
readJsonFile(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot open ", path, " for reading");
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
        return parseJson(buf.str());
    } catch (const JsonParseError &e) {
        throw JsonParseError(msgCat(path, ": ", e.what()), e.line,
                             e.column);
    }
}

void
writeJsonFile(const std::string &path, const Json &root)
{
    std::ofstream out(path, std::ios::trunc);
    fatal_if(!out, "cannot open ", path, " for writing");
    root.dump(out, 0);
    out << '\n';
    out.flush();
    fatal_if(!out, "failed writing ", path);
}

Json
benchArtifact(const std::string &bench, int jobs, double wall_seconds)
{
    Json root = Json::object();
    root["bench"] = bench;
    root["jobs"] = jobs;
    root["wall_seconds"] = wall_seconds;
    root["rows"] = Json::array();
    return root;
}

} // namespace csim
