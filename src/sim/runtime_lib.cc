#include "sim/runtime_lib.hh"

#include "support/logging.hh"

namespace icp
{

namespace
{

AddrPairMap
parseMapSection(const BinaryImage &image, SectionKind kind)
{
    if (const Section *s = image.findSection(kind);
        s && !s->bytes.empty()) {
        auto map = AddrPairMap::parse(s->bytes);
        icp_assert(map, "malformed %s", s->name.c_str());
        return std::move(*map);
    }
    return AddrPairMap();
}

} // namespace

RuntimeLib::RuntimeLib(const LoadedModule &mod)
{
    icp_assert(mod.image, "RuntimeLib: no image");
    trapMap_ = parseMapSection(*mod.image, SectionKind::trapMap);
    raMap_ = parseMapSection(*mod.image, SectionKind::raMap);
}

RuntimeLib::RuntimeLib(const BinaryImage &rewritten)
{
    trapMap_ = parseMapSection(rewritten, SectionKind::trapMap);
    raMap_ = parseMapSection(rewritten, SectionKind::raMap);
}

std::optional<Addr>
RuntimeLib::trapTarget(Addr prefPc) const
{
    return trapMap_.lookup(prefPc);
}

Addr
RuntimeLib::translateRaPref(Addr prefPc) const
{
    if (auto mapped = raMap_.lookup(prefPc))
        return *mapped;
    return prefPc;
}

} // namespace icp
