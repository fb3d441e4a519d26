// Tests for the GIS: DNs, records, filters, directory search, and the Fig 3
// virtual-resource schema. (The network service round-trip is covered in
// core_test.cpp, where a platform provides sockets.)
#include <gtest/gtest.h>

#include "gis/directory.h"
#include "gis/filter.h"
#include "gis/record.h"
#include "gis/schema.h"

using namespace mg::gis;

// --------------------------------------------------------------------- Dn --

TEST(Dn, ParseAndRender) {
  Dn dn = Dn::parse("hn=vm.ucsd.edu, ou=Concurrent Systems Architecture Group, o=Grid");
  ASSERT_EQ(dn.depth(), 3u);
  EXPECT_EQ(dn.rdns()[0].attr, "hn");
  EXPECT_EQ(dn.rdns()[0].value, "vm.ucsd.edu");
  EXPECT_EQ(dn.str(), "hn=vm.ucsd.edu, ou=Concurrent Systems Architecture Group, o=Grid");
}

TEST(Dn, AttrIsCaseNormalized) {
  Dn dn = Dn::parse("HN=x, OU=y");
  EXPECT_EQ(dn.rdns()[0].attr, "hn");
  EXPECT_EQ(dn.rdns()[1].attr, "ou");
}

TEST(Dn, ParentAndChild) {
  Dn base = Dn::parse("ou=CSAG, o=Grid");
  Dn child = base.child("hn", "vm0");
  EXPECT_EQ(child.str(), "hn=vm0, ou=CSAG, o=Grid");
  EXPECT_EQ(child.parent(), base);
  EXPECT_TRUE(Dn{}.parent().empty());
}

TEST(Dn, IsWithin) {
  Dn base = Dn::parse("ou=CSAG, o=Grid");
  Dn host = Dn::parse("hn=vm0, ou=CSAG, o=Grid");
  Dn other = Dn::parse("hn=vm0, ou=Other, o=Grid");
  EXPECT_TRUE(host.isWithin(base));
  EXPECT_TRUE(base.isWithin(base));
  EXPECT_FALSE(other.isWithin(base));
  EXPECT_FALSE(base.isWithin(host));
  EXPECT_TRUE(host.isWithin(Dn{}));  // everything is under the root
}

TEST(Dn, MalformedThrows) {
  EXPECT_THROW(Dn::parse("novalue"), mg::ParseError);
  EXPECT_THROW(Dn::parse("=x"), mg::ParseError);
  EXPECT_THROW(Dn::parse("a=, b=c"), mg::ParseError);
}

// ----------------------------------------------------------------- Record --

TEST(Record, MultiValuedAttributes) {
  Record r(Dn::parse("hn=vm0, o=Grid"));
  r.add("Member", "a");
  r.add("member", "b");
  EXPECT_EQ(r.getAll("MEMBER"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(r.get("member"), "a");
  r.set("member", "only");
  EXPECT_EQ(r.getAll("member"), (std::vector<std::string>{"only"}));
}

TEST(Record, MissingAttributeBehaviour) {
  Record r(Dn::parse("hn=x, o=g"));
  EXPECT_FALSE(r.has("cpu"));
  EXPECT_THROW(r.get("cpu"), mg::Error);
  EXPECT_EQ(r.get("cpu", "def"), "def");
}

TEST(Record, LdifRoundTrip) {
  Record r(Dn::parse("hn=vm.ucsd.edu, o=Grid"));
  r.add("Is_Virtual_Resource", "Yes");
  r.add("CpuSpeed", "533Mops");
  const std::string ldif = r.toLdif();
  Record back = Record::fromLdif(ldif);
  EXPECT_EQ(back.dn(), r.dn());
  EXPECT_EQ(back.get("is_virtual_resource"), "Yes");
  EXPECT_EQ(back.get("cpuspeed"), "533Mops");
}

TEST(Record, FromLdifErrors) {
  EXPECT_THROW(Record::fromLdif("cpu: 5\n"), mg::ParseError);       // no dn
  EXPECT_THROW(Record::fromLdif("dn: hn=x, o=g\nbadline\n"), mg::ParseError);
}

// ----------------------------------------------------------------- Filter --

namespace {
Record vmRecord() {
  Record r(Dn::parse("hn=vm0.ucsd.edu, ou=CSAG, o=Grid"));
  r.add("objectclass", "GridComputeResource");
  r.add("Is_Virtual_Resource", "Yes");
  r.add("Configuration_Name", "Slow_CPU_Configuration");
  r.add("CpuSpeed", "10Mops");
  return r;
}
}  // namespace

TEST(Filter, Equality) {
  EXPECT_TRUE(Filter::parse("(Is_Virtual_Resource=Yes)").matches(vmRecord()));
  EXPECT_FALSE(Filter::parse("(Is_Virtual_Resource=No)").matches(vmRecord()));
  EXPECT_TRUE(Filter::parse("(IS_VIRTUAL_RESOURCE=Yes)").matches(vmRecord()));  // attr case
}

TEST(Filter, WildcardAndPresence) {
  EXPECT_TRUE(Filter::parse("(hostName=*)").matches([] {
    Record r = vmRecord();
    r.add("hostName", "vm0.ucsd.edu");
    return r;
  }()));
  EXPECT_FALSE(Filter::parse("(hostName=*)").matches(vmRecord()));
  EXPECT_TRUE(Filter::parse("(Configuration_Name=Slow_*)").matches(vmRecord()));
  EXPECT_FALSE(Filter::parse("(Configuration_Name=Fast_*)").matches(vmRecord()));
}

TEST(Filter, QuestionMarkMatchesOneCharacter) {
  auto host = [](const std::string& name) {
    Record r(Dn::parse("hn=" + name + ", ou=CSAG, o=Grid"));
    r.add("hn", name);
    return r;
  };
  const Filter f = Filter::parse("(hn=vm?.ucsd.edu)");
  EXPECT_TRUE(f.matches(host("vm0.ucsd.edu")));
  EXPECT_FALSE(f.matches(host("vm10.ucsd.edu")));
}

TEST(Filter, BooleanCombinators) {
  EXPECT_TRUE(Filter::parse("(&(Is_Virtual_Resource=Yes)(CpuSpeed=10Mops))").matches(vmRecord()));
  EXPECT_FALSE(Filter::parse("(&(Is_Virtual_Resource=Yes)(CpuSpeed=99))").matches(vmRecord()));
  EXPECT_TRUE(Filter::parse("(|(CpuSpeed=99)(CpuSpeed=10Mops))").matches(vmRecord()));
  EXPECT_TRUE(Filter::parse("(!(CpuSpeed=99))").matches(vmRecord()));
  EXPECT_FALSE(Filter::parse("(!(Is_Virtual_Resource=Yes))").matches(vmRecord()));
  EXPECT_TRUE(
      Filter::parse("(&(|(a=1)(Is_Virtual_Resource=Yes))(!(a=2)))").matches(vmRecord()));
}

TEST(Filter, EmptyMatchesAll) {
  EXPECT_TRUE(Filter::parse("").matches(vmRecord()));
  EXPECT_TRUE(Filter::matchAll().matches(Record{}));
}

TEST(Filter, MalformedThrows) {
  EXPECT_THROW(Filter::parse("(a=b"), mg::ParseError);
  EXPECT_THROW(Filter::parse("a=b)"), mg::ParseError);
  EXPECT_THROW(Filter::parse("(&)"), mg::ParseError);
  EXPECT_THROW(Filter::parse("(=x)"), mg::ParseError);
  EXPECT_THROW(Filter::parse("(a=b)(c=d)"), mg::ParseError);  // trailing
}

TEST(Filter, RoundTripStr) {
  const std::string text = "(&(a=1)(!(b=2))(|(c=3)(d=*)))";
  EXPECT_EQ(Filter::parse(text).str(), text);
}

// -------------------------------------------------------------- Directory --

namespace {
Directory sampleDir() {
  Directory dir;
  Record org(Dn::parse("ou=CSAG, o=Grid"));
  org.add("objectclass", "organizationalUnit");
  dir.add(org);
  for (int i = 0; i < 3; ++i) {
    Record r(Dn::parse("hn=vm" + std::to_string(i) + ", ou=CSAG, o=Grid"));
    r.add("objectclass", "GridComputeResource");
    r.add("Is_Virtual_Resource", i < 2 ? "Yes" : "No");
    dir.add(r);
  }
  Record deep(Dn::parse("cpu=0, hn=vm0, ou=CSAG, o=Grid"));
  deep.add("objectclass", "cpu");
  dir.add(deep);
  return dir;
}
}  // namespace

TEST(Directory, AddFindRemove) {
  Directory dir = sampleDir();
  EXPECT_EQ(dir.size(), 5u);
  const Dn dn = Dn::parse("hn=vm1, ou=CSAG, o=Grid");
  ASSERT_NE(dir.find(dn), nullptr);
  EXPECT_TRUE(dir.remove(dn));
  EXPECT_FALSE(dir.remove(dn));
  EXPECT_EQ(dir.size(), 4u);
}

TEST(Directory, DuplicateAddThrowsUpsertReplaces) {
  Directory dir = sampleDir();
  Record dup(Dn::parse("hn=vm0, ou=CSAG, o=Grid"));
  EXPECT_THROW(dir.add(dup), mg::ConfigError);
  dup.add("new", "attr");
  dir.upsert(dup);
  EXPECT_EQ(dir.size(), 5u);
  EXPECT_TRUE(dir.find(dup.dn())->has("new"));
}

TEST(Directory, ScopedSearch) {
  Directory dir = sampleDir();
  const Dn base = Dn::parse("ou=CSAG, o=Grid");
  EXPECT_EQ(dir.search(base, Scope::Base, Filter::matchAll()).size(), 1u);
  EXPECT_EQ(dir.search(base, Scope::OneLevel, Filter::matchAll()).size(), 3u);
  EXPECT_EQ(dir.search(base, Scope::Subtree, Filter::matchAll()).size(), 5u);
}

TEST(Directory, FilteredSearch) {
  Directory dir = sampleDir();
  const Dn base = Dn::parse("o=Grid");
  auto virt = dir.search(base, Scope::Subtree, Filter::parse("(Is_Virtual_Resource=Yes)"));
  EXPECT_EQ(virt.size(), 2u);
}

TEST(Directory, LdifRoundTrip) {
  Directory dir = sampleDir();
  Directory back = Directory::fromLdif(dir.toLdif());
  EXPECT_EQ(back.size(), dir.size());
  EXPECT_NE(back.find(Dn::parse("cpu=0, hn=vm0, ou=CSAG, o=Grid")), nullptr);
}

TEST(Directory, ScopeStringConversions) {
  EXPECT_EQ(scopeFromString("sub"), Scope::Subtree);
  EXPECT_EQ(scopeFromString("BASE"), Scope::Base);
  EXPECT_EQ(scopeFromString("one"), Scope::OneLevel);
  EXPECT_THROW(scopeFromString("galaxy"), mg::ParseError);
  EXPECT_EQ(scopeToString(Scope::OneLevel), "one");
}

// ----------------------------------------------------------------- Schema --

TEST(Schema, VirtualHostRecordRoundTrip) {
  mg::vos::VirtualHostInfo info;
  info.hostname = "vm.ucsd.edu";
  info.virtual_ip = "1.11.11.1";
  info.cpu_ops = 533e6;
  info.memory_bytes = 100ll * 1024 * 1024;
  info.physical_host = "csag-226-67.ucsd.edu";
  const Dn base = Dn::parse("ou=CSAG, o=Grid");
  Record r = makeVirtualHostRecord(base, info, "Slow_CPU_Configuration");
  EXPECT_EQ(r.dn().str(), "hn=vm.ucsd.edu, ou=CSAG, o=Grid");
  EXPECT_EQ(r.get("Is_Virtual_Resource"), "Yes");
  EXPECT_EQ(r.get("Mapped_Physical_Resource"), "csag-226-67.ucsd.edu");

  auto back = hostInfoFromRecord(r);
  EXPECT_EQ(back.hostname, info.hostname);
  EXPECT_EQ(back.virtual_ip, info.virtual_ip);
  EXPECT_DOUBLE_EQ(back.cpu_ops, info.cpu_ops);
  EXPECT_EQ(back.memory_bytes, info.memory_bytes);
  EXPECT_EQ(back.physical_host, info.physical_host);
}

TEST(Schema, VirtualNetworkRecord) {
  const Dn base = Dn::parse("ou=CSAG, o=Grid");
  Record r = makeVirtualNetworkRecord(base, "1.11.11.0", "Slow_CPU_Configuration", "LAN", 100e6,
                                      0.050);
  EXPECT_EQ(r.dn().str(), "nn=1.11.11.0, ou=CSAG, o=Grid");
  EXPECT_EQ(r.get("nwType"), "LAN");
  auto speed = parseNetworkSpeed(r.get("speed"));
  EXPECT_DOUBLE_EQ(speed.bandwidth_bps, 100e6);
  EXPECT_NEAR(speed.latency_seconds, 0.050, 1e-9);
}

TEST(Schema, ConfigGroupingQueries) {
  Directory dir;
  const Dn base = Dn::parse("ou=CSAG, o=Grid");
  mg::vos::VirtualHostInfo a;
  a.hostname = "a";
  a.cpu_ops = 1e6;
  a.memory_bytes = 1024;
  mg::vos::VirtualHostInfo b = a;
  b.hostname = "b";
  dir.add(makeVirtualHostRecord(base, a, "cfg1"));
  dir.add(makeVirtualHostRecord(base, b, "cfg2"));
  dir.add(makeVirtualNetworkRecord(base, "1.11.11.0", "cfg1", "LAN", 1e6, 0.001));
  EXPECT_EQ(virtualHostsForConfig(dir, base, "cfg1").size(), 1u);
  EXPECT_EQ(virtualHostsForConfig(dir, base, "cfg2").size(), 1u);
  EXPECT_EQ(virtualNetworksForConfig(dir, base, "cfg1").size(), 1u);
  EXPECT_EQ(virtualNetworksForConfig(dir, base, "cfg2").size(), 0u);
}

TEST(Schema, ParseNetworkSpeedErrors) {
  EXPECT_THROW(parseNetworkSpeed("100Mbps"), mg::ParseError);
  EXPECT_THROW(parseNetworkSpeed(""), mg::ParseError);
}
