// lint:file(persistence) -- wire-encoded configs must round-trip bit-exactly: %a hexfloat only.
#include "dist/wire.hh"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "host/experiment_fields.hh"

namespace hmcsim
{

namespace
{

constexpr std::string_view kHeader = "hmcsim-config v1";

/** Inverse of the percent-escaping in EmitVisitor. */
bool
unescape(std::string_view s, std::string &out)
{
    out.clear();
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '%') {
            out += s[i];
            continue;
        }
        if (i + 2 >= s.size())
            return false;
        const char *hex = s.data() + i + 1;
        unsigned char byte = 0;
        const auto [end, ec] = std::from_chars(hex, hex + 2, byte, 16);
        if (ec != std::errc() || end != hex + 2)
            return false;
        out += static_cast<char>(byte);
        i += 2;
    }
    return true;
}

/** Whole-token unsigned decimal: no sign, no spaces, no trailer. */
bool
parseU64(std::string_view s, std::uint64_t &out)
{
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, out);
    return ec == std::errc() && ptr == end;
}

/** One "key value" line per field, in field-table order. */
struct EmitVisitor
{
    std::string &out;

    template <typename T>
    void
    operator()(const FieldKey &key, const T &v)
    {
        out += key.prefix;
        out += key.name;
        out += ' ';
        if constexpr (std::is_same_v<T, std::string>) {
            // Percent-escape bytes that would break line framing.
            for (const char c : v) {
                if (c == '%' || c == '\n' || c == '\r') {
                    char buf[4];
                    std::snprintf(buf, sizeof(buf), "%%%02X",
                                  static_cast<unsigned char>(c));
                    out += buf;
                } else {
                    out += c;
                }
            }
        } else if constexpr (std::is_same_v<T, double>) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%a", v);
            out += buf;
        } else {
            out += std::to_string(static_cast<std::uint64_t>(v));
        }
        out += '\n';
    }

    template <typename E, std::size_t N>
    void
    operator()(const FieldKey &key, const E &v, const E (&)[N])
    {
        (*this)(key, static_cast<std::uint64_t>(v));
    }
};

/**
 * Strict ordered parser: each field must be the next line, under its
 * exact key, with a value that fits the field. The first failure
 * sticks and the remaining fields are skipped.
 */
struct ParseVisitor
{
    std::string_view rest;
    bool ok = true;

    /** Take the next line, which must be "<key> <value>". */
    bool
    take(const FieldKey &key, std::string_view &value)
    {
        const std::size_t eol = rest.find('\n');
        std::string_view line = rest.substr(0, eol);
        rest.remove_prefix(eol == std::string_view::npos ? rest.size()
                                                          : eol + 1);
        const std::string_view prefix = key.prefix;
        const std::string_view name = key.name;
        if (!line.starts_with(prefix))
            return false;
        line.remove_prefix(prefix.size());
        if (!line.starts_with(name) || line.size() == name.size() ||
            line[name.size()] != ' ')
            return false;
        value = line.substr(name.size() + 1);
        return true;
    }

    template <typename T>
    void
    operator()(const FieldKey &key, T &v)
    {
        std::string_view value;
        if (!ok || !(ok = take(key, value)))
            return;
        if constexpr (std::is_same_v<T, std::string>) {
            ok = unescape(value, v);
        } else if constexpr (std::is_same_v<T, double>) {
            const std::string text(value);
            char *end = nullptr;
            v = std::strtod(text.c_str(), &end);
            ok = !text.empty() && *end == '\0';
        } else {
            // Integers and bool (whose numeric_limits max is 1).
            static_assert(std::is_unsigned_v<T>);
            std::uint64_t n = 0;
            ok = parseU64(value, n) &&
                 n <= std::numeric_limits<T>::max();
            if (ok)
                v = static_cast<T>(n);
        }
    }

    template <typename E, std::size_t N>
    void
    operator()(const FieldKey &key, E &v, const E (&valid)[N])
    {
        std::uint64_t n = 0;
        (*this)(key, n);
        if (!ok)
            return;
        for (const E candidate : valid) {
            if (static_cast<std::uint64_t>(candidate) == n) {
                v = candidate;
                return;
            }
        }
        ok = false;
    }
};

} // namespace

std::string
encodeExperimentConfig(const ExperimentConfig &cfg)
{
    std::string out(kHeader);
    out += '\n';
    forEachField(cfg, EmitVisitor{out});
    return out;
}

bool
decodeExperimentConfig(const std::string &text, ExperimentConfig &out)
{
    std::string_view in = text;
    if (!in.starts_with(kHeader) || in.size() == kHeader.size() ||
        in[kHeader.size()] != '\n')
        return false;
    ExperimentConfig cfg;
    ParseVisitor parse{in.substr(kHeader.size() + 1)};
    forEachField(cfg, parse);
    if (!parse.ok)
        return false;
    out = std::move(cfg);
    return true;
}

} // namespace hmcsim
