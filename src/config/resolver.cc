#include "config/resolver.hh"

#include "common/logging.hh"
#include "config/presets.hh"
#include "runner/json_sink.hh"

namespace csim
{

namespace
{

const std::string kDefaultSource = "default";

} // namespace

void
ConfigResolver::applyPreset(const std::string &name)
{
    const Preset *preset = findPreset(name);
    if (!preset) {
        std::string known;
        for (const Preset &p : allPresets()) {
            if (!known.empty())
                known += ", ";
            known += p.name;
        }
        throw ConfigError(msgCat("unknown preset '", name,
                                 "'; available: ", known));
    }
    csim::applyPreset(spec_, *preset);
    for (const auto &[key, value] : preset->settings) {
        const FieldDef *field = FieldRegistry::instance().find(key);
        provenance_[field->name] = msgCat("preset:", name);
    }
}

void
ConfigResolver::applyJson(const Json &root, const std::string &source)
{
    if (!root.isObject())
        throw ConfigError(msgCat(source,
                                 ": top level must be an object"));

    const FieldRegistry &reg = FieldRegistry::instance();

    // A config file may start from a preset, then override it.
    if (const Json *preset = root.find("preset")) {
        if (!preset->isString())
            throw ConfigError(msgCat(source,
                                     ": 'preset' must be a string"));
        applyPreset(preset->asString());
    }

    // Walk the nested tree; the dotted path of each leaf is the
    // field name.
    // Depth-first in document order keeps error messages stable.
    std::vector<std::pair<std::string, const Json *>> stack;
    const auto &top = root.entries();
    for (auto it = top.rbegin(); it != top.rend(); ++it) {
        if (it->first != "preset")
            stack.emplace_back(it->first, &it->second);
    }
    std::vector<std::pair<std::string, const Json *>> leaves;
    while (!stack.empty()) {
        auto [path, node] = stack.back();
        stack.pop_back();
        if (node->isObject()) {
            const auto &members = node->entries();
            for (auto it = members.rbegin(); it != members.rend();
                 ++it)
                stack.emplace_back(path + "." + it->first,
                                   &it->second);
        } else {
            leaves.emplace_back(path, node);
        }
    }
    for (const auto &[path, node] : leaves) {
        const FieldDef *field = reg.find(path);
        if (!field)
            throw ConfigError(reg.unknownKeyMessage(path, source));
        field->set(spec_, reg.fromJson(*field, *node, source));
        provenance_[field->name] = source;
    }
}

void
ConfigResolver::applyFile(const std::string &path)
{
    applyJson(readJsonFile(path), msgCat("file:", path));
}

void
ConfigResolver::applyOverride(const std::string &key,
                              const std::string &value,
                              const std::string &source)
{
    const FieldRegistry &reg = FieldRegistry::instance();
    const FieldDef *field = reg.find(key);
    if (!field)
        throw ConfigError(reg.unknownKeyMessage(key, source));
    field->set(spec_, reg.parse(*field, value));
    provenance_[field->name] = source;
}

const std::string &
ConfigResolver::provenance(const std::string &field) const
{
    const auto it = provenance_.find(field);
    return it == provenance_.end() ? kDefaultSource : it->second;
}

Json
ConfigResolver::toJson() const
{
    const FieldRegistry &reg = FieldRegistry::instance();
    Json root = Json::object();
    for (const FieldDef &f : reg.fields()) {
        // Split "system.timing.l1_hit" into nested objects.
        Json *node = &root;
        std::string rest = f.name;
        for (std::size_t dot = rest.find('.');
             dot != std::string::npos; dot = rest.find('.')) {
            Json &child = (*node)[rest.substr(0, dot)];
            if (!child.isObject())
                child = Json::object();
            node = &child;
            rest = rest.substr(dot + 1);
        }
        (*node)[rest] = reg.toJson(f, spec_);
    }
    return root;
}

void
ConfigResolver::dumpFile(const std::string &path) const
{
    writeJsonFile(path, toJson());
}

} // namespace csim
